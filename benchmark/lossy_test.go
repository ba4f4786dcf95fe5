package main

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

func dataHeader(seq uint32, tries uint8) *packet.Header {
	return &packet.Header{Type: packet.TypeData, Seq: seq, Tries: tries, Length: 1}
}

func TestLossVerdictIsAFunctionOfPacketIdentity(t *testing.T) {
	hub := transport.NewHub()
	a := newLossy(hub.Endpoint(), 42, 3, 1, lossPPM)
	b := newLossy(hub.Endpoint(), 42, 3, 1, lossPPM)
	otherSeed := newLossy(hub.Endpoint(), 43, 3, 1, lossPPM)
	otherRcv := newLossy(hub.Endpoint(), 42, 3, 2, lossPPM)
	var same, seedDiff, rcvDiff, retryDiff int
	const n = 100000
	for seq := uint32(0); seq < n; seq++ {
		h := dataHeader(seq, 0)
		va := a.drops(h, 0)
		// Same key, any order, any instance: same verdict.
		if va != b.drops(h, 0) || va != a.drops(h, 0) {
			t.Fatalf("seq %d: verdict differs for the same key", seq)
		}
		if va {
			same++
			if !otherSeed.drops(h, 0) {
				seedDiff++
			}
			if !otherRcv.drops(h, 0) {
				rcvDiff++
			}
			if !a.drops(dataHeader(seq, 1), 0) {
				retryDiff++
			}
		}
	}
	if share := float64(same) / n; share < 0.009 || share > 0.011 {
		t.Errorf("dropped %.3f%% of %d packets, want 0.9%%..1.1%%", 100*share, n)
	}
	// Another seed, another receiver and a retransmission each draw
	// afresh: nearly every packet dropped here survives there.
	for name, d := range map[string]int{"seed": seedDiff, "receiver": rcvDiff, "retransmission": retryDiff} {
		if d < same*9/10 {
			t.Errorf("another %s kept only %d of %d dropped packets", name, d, same)
		}
	}
}

func TestLossNeverDropsControlPackets(t *testing.T) {
	l := newLossy(transport.NewHub().Endpoint(), 1, 0, 0, 1e6) // drop every DATA and FEC packet
	for ty := packet.TypeData; ty.Valid(); ty++ {
		dropped := false
		for seq := uint32(0); seq < 1000; seq++ {
			if l.drops(&packet.Header{Type: ty, Seq: seq}, 0) {
				dropped = true
			}
		}
		want := ty == packet.TypeData || ty == packet.TypeFec
		if dropped != want {
			t.Errorf("%v: dropped=%v, want %v", ty, dropped, want)
		}
	}
}

// exchange sends n DATA packets and n UPDATEs through send in batches,
// drains rcv after each, and checks that exactly the packets the
// verdict keeps arrive and that every dropped packet went back to the
// pool.
func exchange(t *testing.T, n int, send func([]transport.Envelope) error, rcv *lossyTransport, group transport.GroupID) {
	t.Helper()
	outstanding := func() int64 {
		c := packet.PoolStats()
		return c.Gets - c.Puts
	}
	before := outstanding()
	type arrival struct {
		env transport.Envelope
		err error
	}
	arrivals := make(chan arrival, 4096)
	go func() {
		buf := make([]transport.Envelope, 64)
		for {
			k, err := rcv.RecvBatch(buf)
			for i := 0; i < k; i++ {
				arrivals <- arrival{env: buf[i]}
			}
			if err != nil {
				arrivals <- arrival{err: err}
				return
			}
		}
	}()
	payload := []byte{1, 2, 3, 4}
	wantData, gotData, gotControl := 0, 0, 0
	const batch = 32
	for base := 0; base < n; base += batch {
		var env []transport.Envelope
		for i := base; i < base+batch && i < n; i++ {
			d := &packet.Packet{Header: packet.Header{Type: packet.TypeData, Seq: uint32(i), Length: uint32(len(payload))}, Payload: payload}
			u := &packet.Packet{Header: packet.Header{Type: packet.TypeUpdate, Seq: uint32(i)}}
			env = append(env,
				transport.Envelope{Pkt: d, Multicast: true, Group: group},
				transport.Envelope{Pkt: u, Multicast: true, Group: group})
			if !rcv.drops(&d.Header, group) {
				wantData++
			}
		}
		if err := send(env); err != nil {
			t.Fatalf("send: %v", err)
		}
		// Collect this batch's survivors before sending the next, so a
		// real socket buffer never overflows.
		deadline := time.After(2 * time.Second)
		for gotData < wantData || gotControl < min(base+batch, n) {
			select {
			case a := <-arrivals:
				if a.err != nil {
					t.Fatalf("recv: %v", a.err)
				}
				h := &a.env.Pkt.Header
				switch h.Type {
				case packet.TypeData:
					if rcv.drops(h, a.env.Group) {
						t.Fatalf("seq %d arrived although its verdict is drop", h.Seq)
					}
					gotData++
				case packet.TypeUpdate:
					gotControl++
				}
				transport.PutPacket(a.env.Pkt)
			case <-deadline:
				t.Fatalf("after %d packets: %d of %d DATA and %d of %d UPDATE arrived",
					base+batch, gotData, wantData, gotControl, min(base+batch, n))
			}
		}
	}
	if gotControl != n {
		t.Errorf("%d of %d control packets arrived", gotControl, n)
	}
	if d := int(rcv.dropped.Load()); d != n-wantData || d == 0 {
		t.Errorf("injector dropped %d packets, want %d (and more than 0)", d, n-wantData)
	}
	if s := int(rcv.seen.Load()); s != n {
		t.Errorf("injector was offered %d DATA packets, want %d", s, n)
	}
	if after := outstanding(); after != before {
		t.Errorf("pool has %d packets checked out, %d before: dropped packets did not go back", after, before)
	}
}

func TestLossOverHub(t *testing.T) {
	hub := transport.NewHub()
	snd := transport.Batched(hub.Endpoint())
	rcv := newLossy(hub.Endpoint(), 7, 0, 0, 100000)
	defer snd.Close()
	defer rcv.Close()
	exchange(t, 4000, snd.SendBatch, rcv, 0)
}

// udpAddr picks a loopback multicast address and port for one test.
func udpAddr(i int) (string, int) {
	return fmt.Sprintf("239.255.%d.%d", 10+time.Now().Nanosecond()%200, 1+i), 31000 + time.Now().Nanosecond()%1000 + i
}

func TestLossOverUDPTransports(t *testing.T) {
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		t.Skipf("no loopback interface: %v", err)
	}
	t.Run("receiver", func(t *testing.T) {
		ip, port := udpAddr(0)
		addr := fmt.Sprintf("%s:%d", ip, port)
		rt, err := udpmcast.NewReceiverTransport(addr, lo)
		if err != nil {
			t.Skipf("loopback multicast unavailable: %v", err)
		}
		rcv := newLossy(rt, 7, 0, 0, 100000)
		defer rcv.Close()
		st, err := udpmcast.NewSenderTransport(addr, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
		if err != nil {
			t.Skipf("loopback multicast unavailable: %v", err)
		}
		defer st.Close()
		exchange(t, 2000, st.SendBatch, rcv, 0)
	})
	t.Run("sender", func(t *testing.T) {
		// A sender transport hears unicast: the receiver transport learns
		// the sender's address from one multicast packet, then unicasts.
		ip, port := udpAddr(1)
		addr := fmt.Sprintf("%s:%d", ip, port)
		rt, err := udpmcast.NewReceiverTransport(addr, lo)
		if err != nil {
			t.Skipf("loopback multicast unavailable: %v", err)
		}
		defer rt.Close()
		st, err := udpmcast.NewSenderTransport(addr, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
		if err != nil {
			t.Skipf("loopback multicast unavailable: %v", err)
		}
		rcv := newLossy(st, 7, 0, 0, 100000)
		defer rcv.Close()
		hello := []transport.Envelope{{Pkt: &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive}}, Multicast: true}}
		if err := st.SendBatch(hello); err != nil {
			t.Fatal(err)
		}
		var one [1]transport.Envelope
		if _, err := rt.RecvBatch(one[:]); err != nil {
			t.Fatal(err)
		}
		transport.PutPacket(one[0].Pkt)
		unicast := func(env []transport.Envelope) error {
			for i := range env {
				env[i].Multicast = false
			}
			return rt.SendBatch(env)
		}
		exchange(t, 2000, unicast, rcv, 0)
	})
	t.Run("group", func(t *testing.T) {
		ip, port := udpAddr(2)
		snd, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: port, Loopback: true})
		if err != nil {
			t.Skipf("group transport unavailable: %v", err)
		}
		defer snd.Close()
		gt, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: port, Loopback: true})
		if err != nil {
			t.Skipf("group transport unavailable: %v", err)
		}
		rcv := newLossy(gt, 7, 0, 0, 100000)
		defer rcv.Close()
		gid, err := snd.Register(ip)
		if err == nil {
			_, err = gt.Join(ip)
		}
		if err != nil {
			t.Skipf("loopback multicast unavailable: %v", err)
		}
		exchange(t, 2000, snd.SendBatch, rcv, gid)
	})
}
