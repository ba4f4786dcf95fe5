package receiver

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/fec"
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/repair"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// mkParity runs the payloads for seqs base..base+len-1 through an
// encoder and returns the group's parity packet. flags, when supplied,
// gives each member's header flags — parity protects those alongside
// the payload, so they must match what the receiver will look up.
func mkParity(t *testing.T, base seqspace.Seq, payloads [][]byte, flags ...uint8) *packet.Packet {
	t.Helper()
	enc := fec.NewEncoder(len(payloads))
	var parity *packet.Packet
	for i, pl := range payloads {
		var fl uint8
		if i < len(flags) {
			fl = flags[i]
		}
		parity = enc.Add(base+seqspace.Seq(i), fl, pl)
	}
	if parity == nil {
		t.Fatal("encoder emitted no parity for a full group")
	}
	return parity
}

// TestFecRecoveryCancelsPendingNak is the FEC-first contract: a gap
// repaired by parity inside the defer window never turns into a NAK,
// and the rebuilt bytes flow through delivery bit-exactly.
func TestFecRecoveryCancelsPendingNak(t *testing.T) {
	r := newR(t, func(c *Config) { c.FECGroupSize = 4 })
	payloads := [][]byte{[]byte("aaaa"), []byte("bb"), []byte("cccccc"), []byte("d")}
	for i, pl := range payloads {
		if i == 2 {
			continue // lost
		}
		r.HandlePacket(sim.Time(i)*kernel.Jiffy, data(seqspace.Seq(i), string(pl)))
	}
	if nak := findType(r.Outgoing(), packet.TypeNak); nak != nil {
		t.Fatal("NAK sent inside the FEC defer window")
	}
	r.HandlePacket(4*kernel.Jiffy, mkParity(t, 0, payloads))
	st := r.Stats()
	if st.FecRecovered != 1 {
		t.Fatalf("FecRecovered = %d, want 1", st.FecRecovered)
	}
	// Defer expiry must now find nothing to NAK.
	r.Advance(4 * sim.Second)
	if nak := findType(r.Outgoing(), packet.TypeNak); nak != nil {
		t.Fatalf("NAK sent after parity already repaired the gap: %+v", nak.Header)
	}
	if st.FecFallbackNaks != 0 {
		t.Errorf("FecFallbackNaks = %d, want 0", st.FecFallbackNaks)
	}
	var got bytes.Buffer
	buf := make([]byte, 64)
	for {
		n, err := r.Read(5*sim.Second, buf)
		got.Write(buf[:n])
		if err == io.EOF || n == 0 {
			break
		}
	}
	want := bytes.Join(payloads, nil)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("delivered %q, want %q", got.Bytes(), want)
	}
}

// TestFecRecoversLostFin is the live-datapath hang regression: the
// zero-length FIN packet is lost and only its group's parity arrives.
// The rebuild must restore FlagFIN — header flags are XOR-protected
// alongside the payload — or the receiver delivers every byte yet
// never reports end-of-stream, wedging the application read forever.
func TestFecRecoversLostFin(t *testing.T) {
	r := newR(t, func(c *Config) { c.FECGroupSize = 4 })
	payloads := [][]byte{[]byte("aaaa"), []byte("bb"), []byte("cccccc"), nil}
	flags := []uint8{0, 0, 0, packet.FlagFIN}
	for i, pl := range payloads {
		if i == 3 {
			continue // the FIN itself is lost
		}
		r.HandlePacket(sim.Time(i)*kernel.Jiffy, data(seqspace.Seq(i), string(pl)))
	}
	r.HandlePacket(4*kernel.Jiffy, mkParity(t, 0, payloads, flags...))
	st := r.Stats()
	if st.FecRecovered != 1 {
		t.Fatalf("FecRecovered = %d, want 1", st.FecRecovered)
	}
	var got bytes.Buffer
	buf := make([]byte, 64)
	for {
		n, err := r.Read(5*kernel.Jiffy, buf)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if n == 0 {
			t.Fatal("Read stalled without EOF: rebuilt FIN lost its flag")
		}
	}
	if want := bytes.Join(payloads, nil); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("delivered %q, want %q", got.Bytes(), want)
	}
	if !r.FinDelivered() {
		t.Error("FinDelivered false after EOF")
	}
}

// TestFecFallbackNakWhenParityLost: the selective-NAK fallback. With
// no parity arriving, the deferred first NAK goes out once the defer
// window expires and is counted as a fallback.
func TestFecFallbackNakWhenParityLost(t *testing.T) {
	r := newR(t, func(c *Config) { c.FECGroupSize = 4 })
	r.HandlePacket(0, data(0, "aa"))
	r.Outgoing()
	r.HandlePacket(kernel.Jiffy, data(2, "cc")) // seq 1 lost
	if nak := findType(r.Outgoing(), packet.TypeNak); nak != nil {
		t.Fatal("first NAK not deferred under FEC")
	}
	r.Advance(sim.Second)
	nak := findType(r.Outgoing(), packet.TypeNak)
	if nak == nil {
		t.Fatal("no fallback NAK after the defer window expired")
	}
	if nak.Seq != 1 || nak.Length != 1 {
		t.Errorf("fallback NAK covers %d+%d, want 1+1", nak.Seq, nak.Length)
	}
	st := r.Stats()
	if st.FecFallbackNaks != 1 {
		t.Errorf("FecFallbackNaks = %d, want 1", st.FecFallbackNaks)
	}
	if st.FecParityWasted != 0 {
		t.Errorf("FecParityWasted = %d, want 0", st.FecParityWasted)
	}
}

// TestFecDoubleLossExpeditesNak: when a group's parity arrives but two
// members are missing, reconstruction is provably impossible — the
// receiver must stop deferring and NAK at once rather than ride out the
// rest of the defer window, and the NAKs still count as fallbacks.
func TestFecDoubleLossExpeditesNak(t *testing.T) {
	r := newR(t, func(c *Config) { c.FECGroupSize = 4 })
	payloads := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc"), []byte("dd")}
	for i, pl := range payloads {
		if i == 1 || i == 2 {
			continue // both lost: parity cannot help
		}
		r.HandlePacket(sim.Time(i)*kernel.Jiffy, data(seqspace.Seq(i), string(pl)))
	}
	if nak := findType(r.Outgoing(), packet.TypeNak); nak != nil {
		t.Fatal("NAK sent inside the FEC defer window")
	}
	// Parity arrives well before the defer window (2×nakRetryInterval
	// from detection) would expire.
	r.HandlePacket(4*kernel.Jiffy, mkParity(t, 0, payloads))
	nak := findType(r.Outgoing(), packet.TypeNak)
	if nak == nil {
		t.Fatal("unrepairable group's parity did not expedite the deferred NAK")
	}
	if nak.Seq != 1 || nak.Length != 2 {
		t.Errorf("expedited NAK covers %d+%d, want 1+2", nak.Seq, nak.Length)
	}
	st := r.Stats()
	if st.FecFallbackNaks != 2 {
		t.Errorf("FecFallbackNaks = %d, want 2", st.FecFallbackNaks)
	}
	if st.FecParityWasted != 1 {
		t.Errorf("FecParityWasted = %d, want 1", st.FecParityWasted)
	}
	if st.FecRecovered != 0 {
		t.Errorf("FecRecovered = %d, want 0", st.FecRecovered)
	}
}

// TestFecWastedParityCounted: parity over a complete group repairs
// nothing and is counted as wasted.
func TestFecWastedParityCounted(t *testing.T) {
	r := newR(t, func(c *Config) { c.FECGroupSize = 2 })
	payloads := [][]byte{[]byte("xx"), []byte("yy")}
	r.HandlePacket(0, data(0, "xx"))
	r.HandlePacket(kernel.Jiffy, data(1, "yy"))
	r.HandlePacket(2*kernel.Jiffy, mkParity(t, 0, payloads))
	st := r.Stats()
	if st.FecParityWasted != 1 {
		t.Errorf("FecParityWasted = %d, want 1", st.FecParityWasted)
	}
	if st.FecRecovered != 0 {
		t.Errorf("FecRecovered = %d, want 0", st.FecRecovered)
	}
}

// TestFecLeafRecoverySuppressesHeadNak: FEC × hierarchy. A leaf that
// parity-recovers a gap must not escalate a HEAD_NAK to its repair
// head once the defer window expires.
func TestFecLeafRecoverySuppressesHeadNak(t *testing.T) {
	r := newR(t, func(c *Config) {
		c.RepairHead = testHead
		c.FECGroupSize = 4
	})
	payloads := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc"), []byte("dd")}
	for i, pl := range payloads {
		if i == 1 {
			continue // lost
		}
		r.HandlePacket(sim.Time(i)*kernel.Jiffy, data(seqspace.Seq(i), string(pl)))
	}
	r.OutgoingAddressed()
	r.HandlePacket(4*kernel.Jiffy, mkParity(t, 0, payloads))
	if r.Stats().FecRecovered != 1 {
		t.Fatalf("FecRecovered = %d, want 1", r.Stats().FecRecovered)
	}
	// Let every defer and retry window expire; nothing may reach the head.
	for now := 5 * kernel.Jiffy; now < 2*sim.Second; now += kernel.Jiffy {
		r.Advance(now)
		for _, a := range r.OutgoingAddressed() {
			if a.Pkt.Type == packet.TypeHeadNak {
				t.Fatalf("leaf escalated HEAD_NAK %d+%d despite local recovery", a.Pkt.Seq, a.Pkt.Length)
			}
		}
	}
}

// TestFecLeafFallbackEscalatesHeadNak: the complement — when no parity
// saves the gap, the deferred request must still reach the head.
func TestFecLeafFallbackEscalatesHeadNak(t *testing.T) {
	r := newR(t, func(c *Config) {
		c.RepairHead = testHead
		c.FECGroupSize = 4
	})
	r.HandlePacket(0, data(0, "aa"))
	r.HandlePacket(kernel.Jiffy, data(2, "cc"))
	r.OutgoingAddressed()
	sawHeadNak := false
	for now := 2 * kernel.Jiffy; now < 2*sim.Second && !sawHeadNak; now += kernel.Jiffy {
		r.Advance(now)
		for _, a := range r.OutgoingAddressed() {
			if a.To == testHead && a.Pkt.Type == packet.TypeHeadNak {
				sawHeadNak = true
			}
		}
	}
	if !sawHeadNak {
		t.Fatal("no HEAD_NAK after the FEC defer expired unrepaired")
	}
	if r.Stats().FecFallbackNaks != 1 {
		t.Errorf("FecFallbackNaks = %d, want 1", r.Stats().FecFallbackNaks)
	}
}

// TestFecHeadWindowConsistentUnderRecoveryRace: FEC × hierarchy. A
// head that parity-recovers a loss and then hears the sender's
// retransmission of the same packet must keep serving the original
// bytes to downstream HEAD_NAKs.
func TestFecHeadWindowConsistentUnderRecoveryRace(t *testing.T) {
	const member = packet.NodeID(7)
	r := newR(t, func(c *Config) {
		c.Head = &repair.Config{}
		c.FECGroupSize = 4
	})
	payloads := [][]byte{[]byte("head-a"), []byte("head-b"), []byte("head-c"), []byte("head-d")}
	for i, pl := range payloads {
		if i == 2 {
			continue // lost on the head's own uplink
		}
		r.HandlePacket(sim.Time(i)*kernel.Jiffy, data(seqspace.Seq(i), string(pl)))
	}
	r.HandlePacket(4*kernel.Jiffy, mkParity(t, 0, payloads))
	if r.Stats().FecRecovered != 1 {
		t.Fatalf("head FecRecovered = %d, want 1", r.Stats().FecRecovered)
	}
	// The sender's retransmission races in after local recovery: a
	// duplicate now, which must not disturb the retained copy.
	retrans := data(2, string(payloads[2]))
	retrans.Tries = 1
	r.HandlePacket(5*kernel.Jiffy, retrans)
	if r.Stats().Duplicates != 1 {
		t.Fatalf("retransmission after recovery not counted as duplicate")
	}
	if src, ok := r.head.Retained(2); !ok {
		t.Fatal("head retained window lost the recovered packet")
	} else if !bytes.Equal(src.Payload, payloads[2]) {
		t.Fatalf("head retained %q for seq 2, want %q", src.Payload, payloads[2])
	}
	// A downstream HEAD_NAK for the recovered sequence must be answered
	// from the retained window with the original bytes, not escalated.
	r.HandleFrom(6*kernel.Jiffy, member, &packet.Packet{Header: packet.Header{
		Type: packet.TypeHeadNak, Seq: 2, Length: 1, RateAdv: 2,
	}})
	answered := false
	for _, p := range r.OutgoingMulticast() {
		if p.Type == packet.TypeData && p.Seq == 2 {
			answered = true
			if !bytes.Equal(p.Payload, payloads[2]) {
				t.Fatalf("head repair carries %q, want %q", p.Payload, payloads[2])
			}
		}
	}
	if !answered {
		t.Fatal("head did not answer the HEAD_NAK from its retained window")
	}
	if r.Stats().HeadNaksAnswered != 1 {
		t.Errorf("HeadNaksAnswered = %d, want 1", r.Stats().HeadNaksAnswered)
	}
	if nak := findType(r.Outgoing(), packet.TypeNak); nak != nil {
		t.Fatalf("head escalated a NAK it could answer locally: %+v", nak.Header)
	}
}

// pooledData builds a pool-owned data packet the way the session's
// receive loop would hand one to the machine.
func pooledData(seq seqspace.Seq, payload []byte, fin bool) *packet.Packet {
	p := packet.GetBuf(len(payload))
	p.Header = packet.Header{
		Type:    packet.TypeData,
		Seq:     uint32(seq),
		Length:  uint32(len(payload)),
		RateAdv: 100000,
	}
	if fin {
		p.Flags = packet.FlagFIN
	}
	p.Payload = append(p.Payload[:0], payload...)
	return p
}

// TestFecCachePoolBalance proves the tentpole's ownership contract:
// with recycling ON and FEC on, every pooled packet — window-held,
// cache-held, and parity-rebuilt — returns to the pool once the stream
// is delivered and the machine is torn down.
func TestFecCachePoolBalance(t *testing.T) {
	before := packet.PoolStats()
	r := newR(t, func(c *Config) {
		c.FECGroupSize = 4
		c.RecyclePackets = true
	})
	const groups = 8
	var want bytes.Buffer
	now := sim.Time(0)
	feed := func(p *packet.Packet) {
		retained, err := r.HandleFrom(now, 0, p)
		if err != nil {
			t.Fatalf("HandleFrom: %v", err)
		}
		if !retained {
			packet.Put(p)
		}
		now += kernel.Jiffy
	}
	seq := seqspace.Seq(0)
	for g := 0; g < groups; g++ {
		payloads := make([][]byte, 4)
		for i := range payloads {
			payloads[i] = bytes.Repeat([]byte{byte(g*4 + i)}, 50+i)
			want.Write(payloads[i])
		}
		lost := (g*7 + 1) % 4 // rotate the lost position; every group loses one
		fin := g == groups-1
		for i, pl := range payloads {
			if i == lost {
				continue
			}
			feed(pooledData(seq+seqspace.Seq(i), pl, fin && i == 3))
		}
		gflags := make([]uint8, 4)
		if fin {
			gflags[3] = packet.FlagFIN
		}
		feed(mkParity(t, seq, payloads, gflags...))
		if fin && lost == 3 {
			t.Fatal("test bug: FIN packet chosen as the lost one")
		}
		seq += 4
	}
	st := r.Stats()
	if st.FecRecovered != groups {
		t.Fatalf("FecRecovered = %d, want %d", st.FecRecovered, groups)
	}
	var got bytes.Buffer
	buf := make([]byte, 256)
	for {
		n, err := r.Read(now, buf)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if n == 0 {
			t.Fatal("Read stalled before EOF")
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("delivered %d bytes, want %d (content mismatch: %v)",
			got.Len(), want.Len(), !bytes.Equal(got.Bytes(), want.Bytes()))
	}
	r.ReleaseBuffers()
	after := packet.PoolStats()
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets != puts {
		t.Fatalf("pool imbalance under FEC recycling: gets +%d, puts +%d (leaked %d)",
			gets, puts, gets-puts)
	}
}
