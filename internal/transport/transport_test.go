package transport

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
)

func pkt(seq uint32) *packet.Packet {
	return &packet.Packet{Header: packet.Header{Type: packet.TypeData, Seq: seq, Length: 0}}
}

// send1 and recv1 move one packet through the batch interface.
func send1(tr Transport, p *packet.Packet, multicast bool, to packet.NodeID) error {
	return tr.SendBatch([]Envelope{{Pkt: p, Multicast: multicast, To: to}})
}

func recv1(tr Transport) (*packet.Packet, packet.NodeID, error) {
	var buf [1]Envelope
	if _, err := tr.RecvBatch(buf[:]); err != nil {
		return nil, 0, err
	}
	return buf[0].Pkt, buf[0].From, nil
}

func TestHubEndpointIdentity(t *testing.T) {
	hub := NewHub()
	a, b := hub.Endpoint(), hub.Endpoint()
	if a.Local() == b.Local() {
		t.Fatal("endpoints share a node ID")
	}
}

func TestHubMulticastExcludesOrigin(t *testing.T) {
	hub := NewHub()
	a, b, c := hub.Endpoint(), hub.Endpoint(), hub.Endpoint()
	if err := send1(a, pkt(1), true, 0); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []Transport{b, c} {
		got, from, err := recv1(ep)
		if err != nil || got.Seq != 1 || from != a.Local() {
			t.Fatalf("multicast recv: %v %v %v", got, from, err)
		}
	}
	// The origin must not have received its own multicast: nothing to
	// read without blocking. Close unblocks with ErrClosed.
	done := make(chan error, 1)
	go func() {
		_, _, err := recv1(a)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("origin received its own multicast or wrong error: %v", err)
	}
}

func TestHubUnicastTargetsOneEndpoint(t *testing.T) {
	hub := NewHub()
	a, b, c := hub.Endpoint(), hub.Endpoint(), hub.Endpoint()
	if err := send1(a, pkt(9), false, b.Local()); err != nil {
		t.Fatal(err)
	}
	got, from, err := recv1(b)
	if err != nil || got.Seq != 9 || from != a.Local() {
		t.Fatalf("unicast recv: %v %v %v", got, from, err)
	}
	// c must not see the unicast.
	done := make(chan struct{})
	go func() {
		recv1(c)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("unrelated endpoint received a unicast")
	case <-time.After(30 * time.Millisecond):
	}
	c.Close()
}

func TestHubUnicastToUnknownNodeIsDropped(t *testing.T) {
	hub := NewHub()
	a := hub.Endpoint()
	if err := send1(a, pkt(1), false, 999); err != nil {
		t.Errorf("send to unknown node errored: %v", err)
	}
}

func TestHubDeliveryIsolation(t *testing.T) {
	// Payload mutations after Send must not reach receivers (packets
	// are cloned per delivery).
	hub := NewHub()
	a, b := hub.Endpoint(), hub.Endpoint()
	p := &packet.Packet{
		Header:  packet.Header{Type: packet.TypeData, Seq: 1, Length: 3},
		Payload: []byte{1, 2, 3},
	}
	send1(a, p, true, 0)
	p.Payload[0] = 99
	got, _, err := recv1(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload[0] != 1 {
		t.Error("delivered packet shares payload memory with the sender")
	}
}

func TestHubLossDropsDeliveries(t *testing.T) {
	hub := NewHub(WithLoss(1.0, 1)) // drop everything
	a, b := hub.Endpoint(), hub.Endpoint()
	for i := 0; i < 10; i++ {
		send1(a, pkt(uint32(i)), true, 0)
	}
	done := make(chan struct{})
	go func() {
		recv1(b)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("packet delivered despite 100% loss")
	case <-time.After(30 * time.Millisecond):
	}
	b.Close()
}

func TestHubPartialLossStatistics(t *testing.T) {
	hub := NewHub(WithLoss(0.5, 7))
	a, b := hub.Endpoint(), hub.Endpoint()
	const n = 2000
	for i := 0; i < n; i++ {
		send1(a, pkt(uint32(i)), false, b.Local())
	}
	// Without a configured delay, delivery is synchronous: everything
	// that survived the loss draw is already queued.
	got := b.(*hubEndpoint).inbox.pending()
	if got < 800 || got > 1200 {
		t.Errorf("50%% loss delivered %d of %d", got, n)
	}
}

func TestHubDelay(t *testing.T) {
	hub := NewHub(WithDelay(50 * time.Millisecond))
	a, b := hub.Endpoint(), hub.Endpoint()
	start := time.Now()
	send1(a, pkt(1), true, 0)
	_, _, err := recv1(b)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 45*time.Millisecond {
		t.Errorf("delivery took %v, want ≥ 50ms delay", el)
	}
}

func TestHubCloseSemantics(t *testing.T) {
	hub := NewHub()
	a, b, c := hub.Endpoint(), hub.Endpoint(), hub.Endpoint()
	a.Close()
	if err := a.Close(); err != nil {
		t.Errorf("double Close errored: %v", err)
	}
	if _, _, err := recv1(a); err != ErrClosed {
		t.Errorf("Recv after Close = %v", err)
	}
	// Sending to a closed endpoint is a silent drop, like the network.
	if err := send1(b, pkt(1), false, a.Local()); err != nil {
		t.Errorf("send to closed endpoint errored: %v", err)
	}
	// A closed endpoint leaves the multicast fan-out; the open ones stay.
	if err := send1(b, pkt(2), true, 0); err != nil {
		t.Errorf("multicast past a closed endpoint errored: %v", err)
	}
	if got, _, err := recv1(c); err != nil || got.Seq != 2 {
		t.Errorf("open endpoint after a peer closed: %v %v", got, err)
	}
}

func TestHubConcurrentSendersSafe(t *testing.T) {
	hub := NewHub()
	rx := hub.Endpoint()
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep := hub.Endpoint()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				send1(ep, pkt(uint32(i)), false, rx.Local())
			}
		}()
	}
	got := 0
	recvDone := make(chan int, 1)
	go func() {
		n := 0
		for n < senders*per {
			_, _, err := recv1(rx)
			if err != nil {
				break
			}
			n++
		}
		recvDone <- n
	}()
	wg.Wait()
	select {
	case got = <-recvDone:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent delivery timed out")
	}
	if got != senders*per {
		t.Errorf("received %d of %d", got, senders*per)
	}
}

// TestHubLossIsSeeded holds WithLoss to its promise of seeded loss: two
// hubs built with the same seed and carrying the same sends deliver the
// same packets to each of four receivers.
func TestHubLossIsSeeded(t *testing.T) {
	run := func() [][]uint32 {
		hub := NewHub(WithLoss(0.3, 42))
		src := hub.Endpoint()
		rcvs := make([]Transport, 4)
		for i := range rcvs {
			rcvs[i] = hub.Endpoint()
		}
		for seq := uint32(0); seq < 200; seq += 10 {
			batch := make([]Envelope, 10)
			for i := range batch {
				batch[i] = Envelope{Pkt: pkt(seq + uint32(i)), Multicast: true}
			}
			if err := src.SendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][]uint32, len(rcvs))
		buf := make([]Envelope, 64)
		for i, r := range rcvs {
			r.Close()
			for {
				n, err := r.RecvBatch(buf)
				if err != nil {
					break
				}
				for _, e := range buf[:n] {
					got[i] = append(got[i], e.Pkt.Seq)
				}
				ReleaseEnvelopes(buf[:n])
			}
		}
		return got
	}
	first, second := run(), run()
	for i := range first {
		if !slices.Equal(first[i], second[i]) {
			t.Errorf("receiver %d: %d then %d packets from the same seed, or different ones", i, len(first[i]), len(second[i]))
		}
		if len(first[i]) == 200 || len(first[i]) == 0 {
			t.Errorf("receiver %d got %d of 200 at 30%% loss", i, len(first[i]))
		}
	}
}
