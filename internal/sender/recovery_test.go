package sender

import (
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Under local recovery a peer's repair cancels the deferred
// retransmission of that one packet and nothing else: the requested range
// it falls inside is split around it, and the requests queued after that
// range survive the split.
func TestRepairHeardSplitsDeferredRetransmissions(t *testing.T) {
	s := newS(t, func(c *Config) { c.LocalRecovery = true })
	s.Write(0, make([]byte, 8000)) // seq 0..7
	s.HandlePacket(0, 1, fb(packet.TypeJoin, 0))
	now := kernel.Jiffy
	s.Tick(now)
	if got := len(dataOuts(s.Outgoing())); got != 8 {
		t.Fatalf("sent %d data packets, want 8", got)
	}
	// Two deferred requests, [0,4) and [6,8); then a peer repairs seq 2.
	for _, g := range [][2]uint32{{0, 4}, {6, 2}} {
		nak := fb(packet.TypeNak, g[0])
		nak.Length = g[1]
		s.HandlePacket(now, 1, nak)
	}
	s.HandlePacket(now, 2, fb(packet.TypeData, 2))
	if got := s.Stats().RetransCancelled; got != 1 {
		t.Errorf("RetransCancelled = %d, want 1", got)
	}
	// Past the deferral and the retransmit guard, everything requested
	// but the repaired packet goes out.
	now += sim.Second
	s.Tick(now)
	var resent []uint32
	for _, o := range dataOuts(s.Outgoing()) {
		resent = append(resent, o.Pkt.Seq)
	}
	if want := []uint32{0, 1, 3, 6, 7}; !slices.Equal(resent, want) {
		t.Errorf("retransmitted %v, want %v", resent, want)
	}
}
