package transport

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
)

func payloadPkt(seq uint32, payload []byte) *packet.Packet {
	return &packet.Packet{
		Header:  packet.Header{Type: packet.TypeData, Seq: seq, Length: uint32(len(payload))},
		Payload: payload,
	}
}

// drainEnvelopes collects exactly want envelopes from bt in the
// background, failing the test on timeout.
func drainEnvelopes(t *testing.T, bt Transport, want int) []Envelope {
	t.Helper()
	out := make(chan []Envelope, 1)
	go func() {
		var got []Envelope
		buf := make([]Envelope, 8)
		for len(got) < want {
			n, err := bt.RecvBatch(buf)
			if err != nil {
				out <- got
				return
			}
			got = append(got, buf[:n]...)
			for i := range buf[:n] {
				buf[i] = Envelope{}
			}
		}
		out <- got
	}()
	select {
	case got := <-out:
		if len(got) != want {
			t.Fatalf("received %d envelopes, want %d", len(got), want)
		}
		return got
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout draining %d envelopes", want)
		return nil
	}
}

// TestHubBatchLossDelayBitExact sends one batch through a lossy,
// delayed hub and checks that exactly the envelopes surviving the
// per-envelope loss draws arrive — in order, after the delay, and with
// payloads bit-exact even though the caller rewrites its buffers the
// moment SendBatch returns.
func TestHubBatchLossDelayBitExact(t *testing.T) {
	const (
		n     = 100
		loss  = 0.3
		seed  = 77
		delay = 30 * time.Millisecond
	)
	hub := NewHub(WithLoss(loss, seed), WithDelay(delay))
	a, b := hub.Endpoint(), hub.Endpoint()

	// Unicast draws happen in envelope order under the hub lock, so the
	// surviving set replays deterministically from the same seed.
	rng := rand.New(rand.NewSource(seed))
	var wantSeqs []uint32
	env := make([]Envelope, n)
	payloads := make([][]byte, n)
	for i := range env {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 64)
		env[i] = Envelope{Pkt: payloadPkt(uint32(i), payloads[i]), To: b.Local()}
		if rng.Float64() >= loss {
			wantSeqs = append(wantSeqs, uint32(i))
		}
	}
	start := time.Now()
	if err := a.SendBatch(env); err != nil {
		t.Fatal(err)
	}
	// SendBatch only borrows the packets: scribbling over them now must
	// not reach the receivers.
	for i := range env {
		env[i].Pkt.Seq = 9999
		for j := range payloads[i] {
			payloads[i][j] = 0xFF
		}
	}

	got := drainEnvelopes(t, b, len(wantSeqs))
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("first delivery after %v, want >= %v", elapsed, delay)
	}
	for i, e := range got {
		if e.From != a.Local() {
			t.Fatalf("envelope %d from %v, want %v", i, e.From, a.Local())
		}
		if e.Pkt.Seq != wantSeqs[i] {
			t.Fatalf("envelope %d seq = %d, want %d", i, e.Pkt.Seq, wantSeqs[i])
		}
		want := bytes.Repeat([]byte{byte(wantSeqs[i])}, 64)
		if !bytes.Equal(e.Pkt.Payload, want) {
			t.Fatalf("envelope %d payload corrupted (seq %d)", i, e.Pkt.Seq)
		}
		PutPacket(e.Pkt)
	}
}

// TestHubConcurrentBatchEndpointsAndLoss races Endpoint() allocation
// against concurrent lossy batched sends: node IDs must stay unique and
// the shared loss rng must stay race-clean (the race detector is the
// assertion there).
func TestHubConcurrentBatchEndpointsAndLoss(t *testing.T) {
	const (
		senders = 4
		batches = 25
		batchN  = 8
	)
	hub := NewHub(WithLoss(0.5, 42))
	sink := hub.Endpoint()
	sinkDone := make(chan struct{})
	go func() {
		defer close(sinkDone)
		buf := make([]Envelope, 16)
		for {
			n, err := sink.RecvBatch(buf)
			if err != nil {
				return
			}
			for i := 0; i < n; i++ {
				PutPacket(buf[i].Pkt)
				buf[i] = Envelope{}
			}
		}
	}()

	var mu sync.Mutex
	seen := make(map[packet.NodeID]bool)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep := hub.Endpoint()
			defer ep.Close()
			mu.Lock()
			if seen[ep.Local()] {
				mu.Unlock()
				t.Errorf("duplicate node ID %v", ep.Local())
				return
			}
			seen[ep.Local()] = true
			mu.Unlock()
			env := make([]Envelope, batchN)
			for b := 0; b < batches; b++ {
				for i := range env {
					env[i] = Envelope{Pkt: payloadPkt(uint32(b*batchN+i), nil), Multicast: true}
				}
				if err := ep.SendBatch(env); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	sink.Close()
	<-sinkDone
}

// TestPacketPoolRoundTrip checks the pool contract: a released packet
// comes back zeroed but keeps its payload capacity, and the pooled
// clone the hub delivers is a deep copy.
func TestPacketPoolRoundTrip(t *testing.T) {
	p := packet.Get()
	if p.Type != 0 || len(p.Payload) != 0 {
		t.Fatalf("fresh pooled packet not zeroed: %+v", p)
	}
	p.Header = packet.Header{Type: packet.TypeData, Seq: 7, Length: 3}
	p.Payload = append(p.Payload, 1, 2, 3)

	c := packet.GetBuf(len(p.Payload))
	p.CloneInto(c)
	if c == p || &c.Payload[0] == &p.Payload[0] {
		t.Fatal("the pooled clone must deep-copy")
	}
	if c.Seq != 7 || !bytes.Equal(c.Payload, []byte{1, 2, 3}) {
		t.Fatalf("clone mismatch: %+v", c)
	}
	p.Payload[0] = 99
	if c.Payload[0] != 1 {
		t.Fatal("clone shares payload storage with original")
	}

	PutPacket(c)
	r := packet.Get()
	// sync.Pool gives no identity guarantee, but whatever comes back
	// must be zeroed with payload length 0.
	if r.Type != 0 || r.Seq != 0 || len(r.Payload) != 0 {
		t.Fatalf("reused packet not zeroed: %+v", r)
	}
	PutPacket(r)
	PutPacket(p)
	ReleaseEnvelopes([]Envelope{{Pkt: packet.Get()}, {}})
}
