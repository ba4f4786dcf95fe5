// Multigroup: three concurrent multicast groups — each a sender and
// two receivers — multiplexed over ONE internal/session driver: a
// single deadline heap, one receive loop per endpoint, and a shared
// 16 Mbps bandwidth budget split fairly (group A gets a double weight)
// by the session's governor.
//
// All six-plus flows share one lossy in-process hub; the H-RMC header
// ports demultiplex the groups, so cross-group traffic never needs
// separate sockets. This mirrors the paper's kernel implementation,
// where every AF_HRMC socket shared one jiffy clock and one NIC.
// Exits non-zero unless every receiver got its group's payload
// bit-exact.
//
//	go run ./examples/multigroup
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

const (
	groups       = 3
	rcvPerGroup  = 2
	payloadBytes = 96 << 10 // per group
	budget       = 16e6 / 8 // 16 Mbps shared across all senders
)

func main() {
	hub := transport.NewHub(transport.WithLoss(0.01, 42))
	sess := session.New(session.Config{Budget: budget})

	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		g := g
		// Port convention: the sender's local port is where feedback
		// arrives; the receivers' local port is where DATA arrives.
		sndPort, rcvPort := uint16(100+2*g), uint16(101+2*g)
		payload := make([]byte, payloadBytes)
		app.FillPattern(payload, int64(g)<<24)

		for r := 0; r < rcvPerGroup; r++ {
			rf, err := sess.OpenReceiverFlow(hub.Endpoint(), session.FlowSpec{
				Kind:      session.KindReceiver,
				Label:     fmt.Sprintf("recv-%c%d", 'A'+g, r),
				LocalPort: rcvPort, PeerPort: sndPort, Buf: 128 << 10,
			})
			if err != nil {
				log.Fatalf("open receiver: %v", err)
			}
			wg.Add(1)
			go func(g, r int) {
				defer wg.Done()
				got, err := io.ReadAll(rf)
				if err != nil {
					log.Fatalf("group %c receiver %d: %v", 'A'+g, r, err)
				}
				if !bytes.Equal(got, payload) {
					log.Fatalf("group %c receiver %d: %d bytes, identical=false", 'A'+g, r, len(got))
				}
				fmt.Printf("group %c receiver %d: %d bytes, identical=true\n", 'A'+g, r, len(got))
			}(g, r)
		}

		weight := 1.0
		if g == 0 {
			weight = 2.0 // group A gets a double share of the budget
		}
		sf, err := sess.OpenSenderFlow(hub.Endpoint(), session.FlowSpec{
			Kind:      session.KindSender,
			Label:     fmt.Sprintf("send-%c", 'A'+g),
			LocalPort: sndPort, PeerPort: rcvPort,
			Buf: 128 << 10, Receivers: rcvPerGroup, Weight: weight,
		})
		if err != nil {
			log.Fatalf("open sender: %v", err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := sf.Write(payload); err != nil {
				log.Fatalf("group %c write: %v", 'A'+g, err)
			}
			if err := sf.Close(); err != nil { // blocks until both receivers hold it
				log.Fatalf("group %c close: %v", 'A'+g, err)
			}
		}(g)
	}

	// Watch the session mid-flight: one line per flow plus the totals.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-tick.C:
			printProgress(sess.Snapshot())
		case <-done:
			running = false
		}
	}

	snap := sess.Snapshot()
	printProgress(snap)
	fmt.Printf("aggregate: %d senders sent %d bytes (+%d retransmitted), "+
		"%d receivers delivered %d bytes, %d NAKs total\n",
		snap.Total.SenderFlows, snap.Total.Sender.BytesSent,
		snap.Total.Sender.RetransBytes,
		snap.Total.ReceiverFlows, snap.Total.Receiver.BytesDelivered,
		snap.Total.Receiver.NaksSent)
	if err := sess.Close(); err != nil {
		log.Fatalf("session close: %v", err)
	}
}

func printProgress(snap session.Snapshot) {
	line := ""
	for _, f := range snap.Flows {
		if f.Sender == nil {
			continue
		}
		line += fmt.Sprintf("  %s=%dKB", f.Label, f.Sender.BytesSent>>10)
	}
	fmt.Printf("progress:%s\n", line)
}
