package fec

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/seqspace"
)

// mkGroup builds k payloads of varying sizes and the parity packet an
// encoder emits for them.
func mkGroup(t *testing.T, k int, base seqspace.Seq, sizes []int) ([][]byte, *packet.Packet) {
	t.Helper()
	enc := NewEncoder(k)
	payloads := make([][]byte, k)
	var parity *packet.Packet
	for i := 0; i < k; i++ {
		n := 100
		if i < len(sizes) {
			n = sizes[i]
		}
		pl := make([]byte, n)
		for j := range pl {
			pl[j] = byte(i*31 + j)
		}
		payloads[i] = pl
		parity = enc.Add(base+seqspace.Seq(i), 0, pl)
		if i < k-1 && parity != nil {
			t.Fatal("parity emitted before the group completed")
		}
	}
	if parity == nil {
		t.Fatal("no parity after a full group")
	}
	return payloads, parity
}

// Recover runs a fresh Decoder, for tests without a long-lived one.
func Recover(parity *packet.Packet, lookup PayloadLookup) (*packet.Packet, bool) {
	var d Decoder
	return d.Recover(parity, lookup)
}

func lookupFrom(payloads [][]byte, base seqspace.Seq, missing int) PayloadLookup {
	return func(seq seqspace.Seq) ([]byte, uint8, bool) {
		i := int(seqspace.Diff(seq, base))
		if i < 0 || i >= len(payloads) || i == missing {
			return nil, 0, false
		}
		return payloads[i], 0, true
	}
}

func TestEncoderGroupBoundaries(t *testing.T) {
	enc := NewEncoder(3)
	if enc.k != 3 {
		t.Fatalf("group size %d", enc.k)
	}
	if NewEncoder(0).k < 2 {
		t.Error("group size not clamped up")
	}
	if NewEncoder(1000).k != MaxGroup {
		t.Error("group size not clamped down")
	}
	p := enc.Add(10, 0, []byte("aa"))
	if p != nil {
		t.Fatal("parity after 1 of 3")
	}
	enc.Add(11, 0, []byte("bb"))
	p = enc.Add(12, 0, []byte("cc"))
	if p == nil || p.Seq != 10 || p.Length != 3 || p.Type != packet.TypeFec {
		t.Fatalf("parity header wrong: %+v", p)
	}
	// Next group starts fresh.
	if enc.Add(13, 0, []byte("dd")) != nil {
		t.Error("parity leaked into the next group")
	}
}

// Regression: a discontinuous first transmission must abandon the open
// group instead of silently emitting parity over a gapped group. The
// receiver aligns members as base..base+K-1, so parity accumulated
// across a sequence jump would rebuild garbage that still passes the
// XOR residue check.
func TestEncoderRestartsOnDiscontinuity(t *testing.T) {
	enc := NewEncoder(3)
	if enc.Restarts() != 0 {
		t.Fatal("fresh encoder reports restarts")
	}
	enc.Add(0, 0, []byte("aa"))
	enc.Add(1, 0, []byte("bb"))
	// Sequence jump mid-group: 5 instead of 2.
	if p := enc.Add(5, 0, []byte("cc")); p != nil {
		t.Fatal("parity emitted across a sequence gap")
	}
	if enc.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", enc.Restarts())
	}
	// Re-feeding the same sequence number (a mis-fed retransmission)
	// must also restart rather than double-count it.
	if p := enc.Add(5, 0, []byte("cc")); p != nil {
		t.Fatal("parity emitted after a duplicate sequence number")
	}
	if enc.Restarts() != 2 {
		t.Fatalf("restarts = %d, want 2", enc.Restarts())
	}
	// The restarted group must complete normally and its parity must
	// actually recover the right bytes.
	payloads := [][]byte{[]byte("cc"), []byte("dddd"), []byte("e")}
	enc.Add(6, 0, payloads[1])
	parity := enc.Add(7, 0, payloads[2])
	if parity == nil {
		t.Fatal("no parity after the restarted group completed")
	}
	if parity.Seq != 5 || parity.Length != 3 {
		t.Fatalf("restarted group parity header wrong: %+v", parity.Header)
	}
	for missing := 0; missing < 3; missing++ {
		got, ok := Recover(parity, lookupFrom(payloads, 5, missing))
		if !ok || !bytes.Equal(got.Payload, payloads[missing]) {
			t.Fatalf("restarted group failed to recover position %d", missing)
		}
	}
}

func TestRecoverEachPosition(t *testing.T) {
	const k = 5
	sizes := []int{100, 1, 57, 100, 33} // mixed sizes, incl. shorter-than-max
	payloads, parity := mkGroup(t, k, 1000, sizes)
	for missing := 0; missing < k; missing++ {
		got, ok := Recover(parity, lookupFrom(payloads, 1000, missing))
		if !ok {
			t.Fatalf("recovery failed for position %d", missing)
		}
		if got.Seq != uint32(1000+missing) {
			t.Errorf("rebuilt seq %d, want %d", got.Seq, 1000+missing)
		}
		if !bytes.Equal(got.Payload, payloads[missing]) {
			t.Errorf("position %d: rebuilt payload differs", missing)
		}
		if got.Type != packet.TypeData || got.Length != uint32(len(payloads[missing])) {
			t.Errorf("rebuilt header wrong: %+v", got.Header)
		}
	}
}

// Regression: header flags ride inside the XOR-protected block, so a
// rebuilt packet restores them bit-exactly. The live-datapath hang this
// guards against: the zero-length FIN packet lost on the wire and
// rebuilt from parity WITHOUT FlagFIN delivers the whole stream but
// never signals end-of-stream, wedging the reader forever.
func TestRecoverRestoresFlags(t *testing.T) {
	enc := NewEncoder(3)
	payloads := [][]byte{[]byte("hello"), []byte("world!"), nil}
	flags := []uint8{0, packet.FlagURG, packet.FlagFIN}
	var parity *packet.Packet
	for i, pl := range payloads {
		parity = enc.Add(seqspace.Seq(100+i), flags[i], pl)
	}
	if parity == nil {
		t.Fatal("no parity after full group")
	}
	for missing := 0; missing < 3; missing++ {
		lookup := func(seq seqspace.Seq) ([]byte, uint8, bool) {
			i := int(seqspace.Diff(seq, 100))
			if i < 0 || i >= 3 || i == missing {
				return nil, 0, false
			}
			return payloads[i], flags[i], true
		}
		got, ok := Recover(parity, lookup)
		if !ok {
			t.Fatalf("recovery failed for position %d", missing)
		}
		if got.Flags != flags[missing] {
			t.Errorf("position %d: rebuilt flags %#x, want %#x", missing, got.Flags, flags[missing])
		}
		if missing == 2 && !got.FIN() {
			t.Error("rebuilt FIN packet lost its FIN flag")
		}
		if !bytes.Equal(got.Payload, payloads[missing]) {
			t.Errorf("position %d: rebuilt payload differs", missing)
		}
	}
}

func TestRecoverRefusesZeroOrTwoMissing(t *testing.T) {
	payloads, parity := mkGroup(t, 4, 0, nil)
	if _, ok := Recover(parity, lookupFrom(payloads, 0, -1)); ok {
		t.Error("recovered with nothing missing")
	}
	two := func(seq seqspace.Seq) ([]byte, uint8, bool) {
		i := int(seq)
		if i == 1 || i == 2 {
			return nil, 0, false
		}
		return payloads[i], 0, true
	}
	if _, ok := Recover(parity, two); ok {
		t.Error("recovered with two missing")
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	if _, ok := Recover(&packet.Packet{Header: packet.Header{Type: packet.TypeData}}, nil); ok {
		t.Error("recovered from a non-FEC packet")
	}
	bad := &packet.Packet{Header: packet.Header{Type: packet.TypeFec, Length: 1}}
	if _, ok := Recover(bad, nil); ok {
		t.Error("recovered from k=1")
	}
	bad = &packet.Packet{Header: packet.Header{Type: packet.TypeFec, Length: 200}, Payload: []byte{0, 0}}
	if _, ok := Recover(bad, nil); ok {
		t.Error("recovered from oversized k")
	}
	// Inconsistent group: member larger than parity coverage.
	payloads, parity := mkGroup(t, 3, 0, []int{10, 10, 10})
	big := func(seq seqspace.Seq) ([]byte, uint8, bool) {
		if seq == 0 {
			return make([]byte, 500), 0, true
		}
		return lookupFrom(payloads, 0, 1)(seq)
	}
	if _, ok := Recover(parity, big); ok {
		t.Error("recovered despite an oversized member")
	}
}

// Property: for any group contents and any single missing position,
// recovery rebuilds the exact payload.
func TestPropRecoverRoundTrip(t *testing.T) {
	f := func(seed uint8, kRaw uint8, missRaw uint8, lens []uint8) bool {
		k := int(kRaw%7) + 2
		enc := NewEncoder(k)
		payloads := make([][]byte, k)
		var parity *packet.Packet
		for i := 0; i < k; i++ {
			n := 1
			if i < len(lens) {
				n = int(lens[i])%200 + 1
			}
			pl := make([]byte, n)
			for j := range pl {
				pl[j] = byte(int(seed) + i*37 + j*11)
			}
			payloads[i] = pl
			parity = enc.Add(seqspace.Seq(i), 0, pl)
		}
		missing := int(missRaw) % k
		got, ok := Recover(parity, lookupFrom(payloads, 0, missing))
		return ok && bytes.Equal(got.Payload, payloads[missing]) && got.Seq == uint32(missing)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncoderAdd(b *testing.B) {
	enc := NewEncoder(8)
	payload := make([]byte, 1400)
	b.SetBytes(1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Add(seqspace.Seq(i), 0, payload)
	}
}

func BenchmarkRecover(b *testing.B) {
	enc := NewEncoder(8)
	payloads := make([][]byte, 8)
	var parity *packet.Packet
	for i := range payloads {
		payloads[i] = make([]byte, 1400)
		parity = enc.Add(seqspace.Seq(i), 0, payloads[i])
	}
	lookup := func(seq seqspace.Seq) ([]byte, uint8, bool) {
		if seq == 3 {
			return nil, 0, false
		}
		return payloads[int(seq)], 0, true
	}
	b.SetBytes(8 * 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Recover(parity, lookup); !ok {
			b.Fatal("recovery failed")
		}
	}
}
