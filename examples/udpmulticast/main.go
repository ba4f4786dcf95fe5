// Udpmulticast: the live path — one sender and three receivers in a
// single process, exchanging H-RMC packets over *real* UDP multicast on
// the loopback interface. The identical protocol machines that run in
// the simulator drive real sockets here.
//
// Requires an environment where loopback multicast works (Linux with
// the lo interface up). If the group cannot be joined, the example says
// so and exits cleanly; once the transfer starts, any error or mismatch
// exits non-zero.
//
//	go run ./examples/udpmulticast
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/session"
	"repro/internal/udpmcast"
)

const group = "239.66.66.66:39999"

func main() {
	const nReceivers = 3
	payload := make([]byte, 512<<10)
	app.FillPattern(payload, 0)

	lo, err := net.InterfaceByName("lo")
	if err != nil {
		fmt.Println("no loopback interface; skipping live multicast demo:", err)
		return
	}

	var rts []*udpmcast.Endpoint
	for i := 0; i < nReceivers; i++ {
		rt, err := udpmcast.NewReceiverTransport(group, lo)
		if err != nil {
			fmt.Println("cannot join multicast group; skipping demo:", err)
			return
		}
		rts = append(rts, rt)
	}
	st, err := udpmcast.NewSenderTransport(group, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		fmt.Println("cannot open sender transport; skipping demo:", err)
		return
	}

	sess := session.New(session.Config{})
	var wg sync.WaitGroup
	for i, rt := range rts {
		rcv, err := sess.OpenReceiverFlow(rt, session.FlowSpec{Kind: session.KindReceiver, Buf: 256 << 10})
		if err != nil {
			log.Fatalf("open receiver %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(rcv)
			if err != nil {
				log.Fatalf("receiver %d: %v", i, err)
			}
			if !bytes.Equal(got, payload) {
				log.Fatalf("receiver %d: %d bytes over real UDP multicast, identical=false", i, len(got))
			}
			fmt.Printf("receiver %d: %d bytes over real UDP multicast, identical=true\n", i, len(got))
		}(i)
	}

	snd, err := sess.OpenSenderFlow(st, session.FlowSpec{Kind: session.KindSender, Buf: 256 << 10, Receivers: nReceivers})
	if err != nil {
		log.Fatalf("open sender: %v", err)
	}
	start := time.Now()
	if _, err := snd.Write(payload); err != nil {
		log.Fatalf("write: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- snd.Close() }()
	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("close: %v", err)
		}
	case <-time.After(30 * time.Second):
		fmt.Println("timed out — multicast may not be routed in this environment")
		os.Exit(1)
	}
	wg.Wait()
	el := time.Since(start)
	if err := sess.Close(); err != nil {
		log.Fatalf("session close: %v", err)
	}
	fmt.Printf("sender: done in %v (%.2f Mbps), %d members served\n",
		el.Round(time.Millisecond), float64(len(payload))*8/el.Seconds()/1e6, nReceivers)
}
