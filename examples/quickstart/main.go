// Quickstart: one H-RMC sender, three receivers, in-process transport
// that drops 5% of all deliveries and delays the rest by 2 ms, with
// tiny kernel buffers (16 KiB ≈ eleven packets).
//
// This is the smallest complete use of the public API: create a
// transport and a session, open one sending and several receiving
// flows from FlowSpecs, write on one side, read on the others. The
// sender's Close blocks until every receiver is known to hold the whole
// stream — the reliability guarantee H-RMC adds over the RMC baseline.
// The printed statistics show the machinery that made it happen: NAKs,
// retransmissions, periodic updates and sender probes. Exits non-zero
// unless every receiver got the payload bit-exact.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/session"
	"repro/internal/transport"
)

func main() {
	const (
		nReceivers = 3
		size       = 96 << 10
		buffers    = 16 << 10
	)
	payload := make([]byte, size)
	app.FillPattern(payload, 0)

	hub := transport.NewHub(transport.WithLoss(0.05, 42), transport.WithDelay(2*time.Millisecond))
	sess := session.New(session.Config{})

	// Receivers first, so they are listening when data starts.
	var wg sync.WaitGroup
	rcvs := make([]*session.ReceiverFlow, nReceivers)
	for i := range rcvs {
		rcv, err := sess.OpenReceiverFlow(hub.Endpoint(), session.FlowSpec{Kind: session.KindReceiver, Buf: buffers})
		if err != nil {
			log.Fatalf("open receiver %d: %v", i, err)
		}
		rcvs[i] = rcv
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(rcv) // io.Reader semantics: EOF at end of stream
			if err != nil {
				log.Fatalf("receiver %d: %v", i, err)
			}
			if !bytes.Equal(got, payload) {
				log.Fatalf("receiver %d: %d bytes, identical=false", i, len(got))
			}
			fmt.Printf("receiver %d: %d bytes, identical=true\n", i, len(got))
		}(i)
	}

	snd, err := sess.OpenSenderFlow(hub.Endpoint(), session.FlowSpec{
		Kind:      session.KindSender,
		Buf:       buffers,
		Receivers: nReceivers, // hold buffers until all three join
	})
	if err != nil {
		log.Fatalf("open sender: %v", err)
	}
	if _, err := snd.Write(payload); err != nil {
		log.Fatalf("write: %v", err)
	}
	if err := snd.Close(); err != nil { // blocks until everyone has everything
		log.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		log.Fatalf("session close: %v", err)
	}

	st := snd.Stats()
	fmt.Printf("sender: %d data packets + %d retransmissions; %d NAKs, %d updates received, %d probes sent\n",
		st.PacketsSent, st.Retransmissions, st.NaksReceived, st.UpdatesReceived, st.ProbesSent)
	fmt.Printf("reliability: %d NAK errors (H-RMC guarantees this stays 0)\n", st.NakErrsSent)
	for i, r := range rcvs {
		rs := r.Stats()
		fmt.Printf("receiver %d: %d dups discarded, %d NAKs sent (%d retried), %d probes answered\n",
			i, rs.Duplicates, rs.NaksSent, rs.NakRetries, rs.ProbesReceived)
	}
}
