// Sockets: the kernel implementation's BSD-style call sequence
// (Section 4 of the paper), reproduced over the in-memory transport.
// The sender performs socket → bind → connect → send → close; each
// receiver performs socket → bind → setsockopt(join) → recv → close —
// "application code that uses the H-RMC protocol looks much like any
// other socket-related code." Exits non-zero unless every receiver
// got the payload bit-exact.
//
//	go run ./examples/sockets
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"sync"

	"repro/internal/app"
	"repro/internal/hrmcsock"
	"repro/internal/transport"
)

const group = "239.1.2.3:7777"

func main() {
	hub := transport.NewHub()
	payload := make([]byte, 256<<10)
	app.FillPattern(payload, 0)
	const nReceivers = 2

	var wg sync.WaitGroup
	for i := 0; i < nReceivers; i++ {
		// Receiver: socket(AF_HRMC, SOCK_IP, IPPROTO_HRMC) → bind →
		// setsockopt(HRMC_ADD_MEMBERSHIP) → recv → close.
		sock, err := hrmcsock.Socket(hrmcsock.AF_HRMC, hrmcsock.SOCK_IP, hrmcsock.IPPROTO_HRMC)
		if err != nil {
			log.Fatal(err)
		}
		sock.UseTransport(hub.Endpoint()) // in-process demo; omit for real UDP
		if err := sock.Bind(7777); err != nil {
			log.Fatal(err)
		}
		if err := sock.Setsockopt(hrmcsock.SO_RCVBUF, 128<<10); err != nil {
			log.Fatal(err)
		}
		if err := sock.Setsockopt(hrmcsock.HRMC_ADD_MEMBERSHIP, group); err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(sock)
			if err != nil {
				log.Fatalf("recv %d: %v", i, err)
			}
			if !bytes.Equal(got, payload) {
				log.Fatalf("receiver %d: recv'd %d bytes, identical=false", i, len(got))
			}
			fmt.Printf("receiver %d: recv'd %d bytes, identical=true\n", i, len(got))
			if err := sock.Close(); err != nil {
				log.Fatalf("recv %d: close: %v", i, err)
			}
		}(i)
	}

	// Sender: socket → bind → connect → send → close.
	sock, err := hrmcsock.Socket(hrmcsock.AF_HRMC, hrmcsock.SOCK_IP, hrmcsock.IPPROTO_HRMC)
	if err != nil {
		log.Fatal(err)
	}
	sock.UseTransport(hub.Endpoint())
	if err := sock.Bind(5123); err != nil {
		log.Fatal(err)
	}
	if err := sock.Setsockopt(hrmcsock.SO_SNDBUF, 128<<10); err != nil {
		log.Fatal(err)
	}
	if err := sock.Setsockopt(hrmcsock.HRMC_EXPECTED_RECEIVERS, nReceivers); err != nil {
		log.Fatal(err)
	}
	if err := sock.Connect(group); err != nil {
		log.Fatal(err)
	}
	if _, err := sock.Write(payload); err != nil {
		log.Fatal(err)
	}
	if err := sock.Close(); err != nil { // blocks until delivery is complete
		log.Fatal(err)
	}
	wg.Wait()
	fmt.Println("sender: close returned — every receiver holds the stream")
}
