// Udpmulticast: the live path — one sender and three receivers in a
// single process, exchanging H-RMC packets over *real* UDP multicast on
// the loopback interface. The identical protocol machines that run in
// the simulator drive real sockets here.
//
// Requires an environment where loopback multicast works (Linux with
// the lo interface up). If the group cannot be joined, the example says
// so and exits cleanly.
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
	"repro/internal/core"
	"repro/internal/receiver"
	"repro/internal/sender"
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

	var wg sync.WaitGroup
	for i, rt := range rts {
		rcv := core.NewReceiver(rt, receiver.Config{RcvBuf: 256 << 10})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(rcv)
			if err != nil {
				log.Fatalf("receiver %d: %v", i, err)
			}
			fmt.Printf("receiver %d: %d bytes over real UDP multicast, identical=%v\n",
				i, len(got), bytes.Equal(got, payload))
			rcv.Close()
		}(i)
	}

	snd := core.NewSender(st, sender.Config{
		SndBuf:            256 << 10,
		ExpectedReceivers: nReceivers,
	})
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
	fmt.Printf("sender: done in %v (%.2f Mbps), %d members served\n",
		el.Round(time.Millisecond), float64(len(payload))*8/el.Seconds()/1e6, nReceivers)
}
