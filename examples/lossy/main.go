// Lossy: reliability under visible adversity. The in-memory hub drops
// 5% of all deliveries and delays the rest; the kernel buffers are tiny
// (16 KiB ≈ eleven packets). The transfer still completes bit-exact, and
// the printed statistics show the machinery that made it happen: NAKs,
// retransmissions, periodic updates and sender probes. Exits non-zero
// unless every receiver got the payload bit-exact.
//
//	go run ./examples/lossy
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
		nReceivers = 2
		size       = 96 << 10
		buffers    = 16 << 10
		lossRate   = 0.05
	)
	payload := make([]byte, size)
	app.FillPattern(payload, 0)

	hub := transport.NewHub(
		transport.WithLoss(lossRate, 42),
		transport.WithDelay(2*time.Millisecond),
	)

	sess := session.New(session.Config{})
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
			got, err := io.ReadAll(rcv)
			if err != nil {
				log.Fatalf("receiver %d: %v", i, err)
			}
			if !bytes.Equal(got, payload) {
				log.Fatalf("receiver %d: %d bytes, bit-exact=false", i, len(got))
			}
			fmt.Printf("receiver %d: %d bytes, bit-exact=true\n", i, len(got))
		}(i)
	}

	snd, err := sess.OpenSenderFlow(hub.Endpoint(), session.FlowSpec{Kind: session.KindSender, Buf: buffers, Receivers: nReceivers})
	if err != nil {
		log.Fatalf("open sender: %v", err)
	}
	fmt.Printf("sending %d KiB through %d%% loss with %d KiB buffers...\n",
		size>>10, int(lossRate*100), buffers>>10)
	start := time.Now()
	if _, err := snd.Write(payload); err != nil {
		log.Fatalf("write: %v", err)
	}
	if err := snd.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	wg.Wait()

	st := snd.Stats()
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("sender:  %d data packets + %d retransmissions\n", st.PacketsSent, st.Retransmissions)
	fmt.Printf("feedback: %d NAKs, %d updates, %d probes sent, %d keepalives\n",
		st.NaksReceived, st.UpdatesReceived, st.ProbesSent, st.KeepalivesSent)
	fmt.Printf("reliability: %d NAK errors (H-RMC guarantees this stays 0)\n", st.NakErrsSent)
	for i, r := range rcvs {
		rs := r.Stats()
		fmt.Printf("receiver %d: %d dups discarded, %d NAKs sent (%d retried), %d probes answered\n",
			i, rs.Duplicates, rs.NaksSent, rs.NakRetries, rs.ProbesReceived)
	}
	if err := sess.Close(); err != nil {
		log.Fatalf("session close: %v", err)
	}
}
