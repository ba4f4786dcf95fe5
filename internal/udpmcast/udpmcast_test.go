package udpmcast

import (
	"bytes"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/transport"
)

const testGroup = "239.66.77.88:39877"

// loopbackInterface returns an interface suitable for same-host
// multicast, preferring loopback.
func loopbackInterface(t *testing.T) *net.Interface {
	t.Helper()
	ifs, err := net.Interfaces()
	if err != nil {
		t.Skipf("no interfaces: %v", err)
	}
	for _, ifi := range ifs {
		if ifi.Flags&net.FlagLoopback != 0 && ifi.Flags&net.FlagUp != 0 {
			ifi := ifi
			return &ifi
		}
	}
	return nil
}

// multicastAvailable probes whether same-host multicast actually moves
// packets in this environment.
func multicastAvailable(t *testing.T) bool {
	t.Helper()
	ifi := loopbackInterface(t)
	rt, err := NewReceiverTransport(testGroup, ifi)
	if err != nil {
		t.Logf("multicast unavailable: %v", err)
		return false
	}
	defer rt.Close()
	st, err := NewSenderTransport(testGroup, WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		t.Logf("multicast unavailable: %v", err)
		return false
	}
	defer st.Close()
	probe := []transport.Envelope{{
		Pkt:       &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: 42}},
		Multicast: true,
	}}
	got := make(chan bool, 1)
	go func() {
		var one [1]transport.Envelope
		_, err := rt.RecvBatch(one[:])
		got <- err == nil && one[0].Pkt.Seq == 42
	}()
	for i := 0; i < 5; i++ {
		if err := st.SendBatch(probe); err != nil {
			t.Logf("multicast send failed: %v", err)
			return false
		}
		select {
		case ok := <-got:
			return ok
		case <-time.After(200 * time.Millisecond):
		}
	}
	return false
}

func TestUDPMulticastTransfer(t *testing.T) {
	if !multicastAvailable(t) {
		t.Skip("IP multicast not available in this environment")
	}
	const n = 2
	const size = 64 << 10
	ifi := loopbackInterface(t)

	var rts []*Endpoint
	for i := 0; i < n; i++ {
		rt, err := NewReceiverTransport(testGroup, ifi)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	st, err := NewSenderTransport(testGroup, WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}

	want := make([]byte, size)
	app.FillPattern(want, 0)

	sess := session.New(session.Config{})
	defer sess.Abort()
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i, rt := range rts {
		rf, err := sess.OpenReceiverFlow(rt, session.FlowSpec{Kind: session.KindReceiver, Buf: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := io.ReadAll(rf)
			if err != nil {
				t.Errorf("receiver %d: %v", i, err)
			}
			results[i] = got
		}(i)
	}

	sf, err := sess.OpenSenderFlow(st, session.FlowSpec{Kind: session.KindSender, Buf: 64 << 10, Receivers: n})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Write(want); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sf.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sender Close timed out over UDP multicast")
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("receiver %d delivered %d bytes, equal=%v", i, len(got), bytes.Equal(got, want))
		}
	}
}

func TestSenderTransportRejectsNonMulticastGroup(t *testing.T) {
	if _, err := NewSenderTransport("127.0.0.1:9999"); err == nil {
		t.Error("unicast group address accepted")
	}
	if _, err := NewSenderTransport("not-an-address"); err == nil {
		t.Error("garbage group address accepted")
	}
}

// TestLearnStableAndAllocFree checks the peer table: dense IDs from
// peerIDBase in order of first appearance, the same ID for the same
// source on every call, and no allocation for a known peer — learn runs
// once per received datagram slot.
func TestLearnStableAndAllocFree(t *testing.T) {
	e := &Endpoint{ids: make(map[netip.AddrPort]packet.NodeID)}
	a := netip.MustParseAddrPort("127.0.0.1:4000")
	b := netip.MustParseAddrPort("127.0.0.1:4001")
	ida, idb := e.learn(a), e.learn(b)
	if ida != peerIDBase || idb != peerIDBase+1 {
		t.Errorf("first two peers got IDs %v and %v, want %v and %v", ida, idb, peerIDBase, peerIDBase+1)
	}
	for i := 0; i < 3; i++ {
		if got := e.learn(a); got != ida {
			t.Errorf("call %d: known source re-learned as %v, was %v", i, got, ida)
		}
	}
	if got := e.learn(b); got != idb {
		t.Errorf("second source re-learned as %v, was %v", got, idb)
	}
	var sink packet.NodeID
	if n := testing.AllocsPerRun(1000, func() { sink = e.learn(a) }); n != 0 {
		t.Errorf("learn of a known peer allocates %.1f times per call, want 0", n)
	}
	_ = sink
	// dest maps the ID back to the address it was learned from.
	e.mu.Lock()
	got, err := e.dest(&transport.Envelope{To: idb})
	e.mu.Unlock()
	if err != nil || got != b {
		t.Errorf("dest(%v) = %v, %v; want %v", idb, got, err, b)
	}
}
