// Quickstart: one H-RMC sender, three receivers, in-process transport.
//
// This is the smallest complete use of the public API: create a
// transport and a session, open one sending and several receiving
// flows from FlowSpecs, write on one side, read on the others. The
// sender's Close blocks until every receiver is known to hold the whole
// stream — the reliability guarantee H-RMC adds over the RMC baseline.
// Exits non-zero unless every receiver got the message bit-exact.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"sync"

	"repro/internal/session"
	"repro/internal/transport"
)

func main() {
	const nReceivers = 3
	message := bytes.Repeat([]byte("reliable multicast with H-RMC! "), 4096) // 128 KiB

	hub := transport.NewHub()
	sess := session.New(session.Config{})

	// Receivers first, so they are listening when data starts.
	var wg sync.WaitGroup
	results := make([][]byte, nReceivers)
	for i := 0; i < nReceivers; i++ {
		rcv, err := sess.OpenReceiverFlow(hub.Endpoint(), session.FlowSpec{Kind: session.KindReceiver, Buf: 128 << 10})
		if err != nil {
			log.Fatalf("open receiver %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(rcv) // io.Reader semantics: EOF at end of stream
			if err != nil {
				log.Fatalf("receiver %d: %v", i, err)
			}
			results[i] = got
		}(i)
	}

	snd, err := sess.OpenSenderFlow(hub.Endpoint(), session.FlowSpec{
		Kind:      session.KindSender,
		Buf:       128 << 10,
		Receivers: nReceivers, // hold buffers until all three join
	})
	if err != nil {
		log.Fatalf("open sender: %v", err)
	}
	if _, err := snd.Write(message); err != nil {
		log.Fatalf("write: %v", err)
	}
	if err := snd.Close(); err != nil { // blocks until everyone has everything
		log.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		log.Fatalf("session close: %v", err)
	}

	for i, got := range results {
		if !bytes.Equal(got, message) {
			log.Fatalf("receiver %d: %d bytes, identical=false", i, len(got))
		}
		fmt.Printf("receiver %d: %d bytes, identical=true\n", i, len(got))
	}
	st := snd.Stats()
	fmt.Printf("sender: %d data packets, %d updates received, %d probes sent\n",
		st.PacketsSent, st.UpdatesReceived, st.ProbesSent)
}
