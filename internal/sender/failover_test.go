package sender

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Silent-head failover unit tests: the sender-side half of the repair-
// head failure model — AGG_UPDATE-silence eviction, the release fence
// over the failover grace, the orphaned-leaves gauge, and the
// tombstoned-head NAK_ERR exemption.

// agg builds an AGG_UPDATE: Seq is the subtree minimum, Length the
// downstream member count.
func agg(seq uint32, members uint32) *packet.Packet {
	return &packet.Packet{Header: packet.Header{
		Type: packet.TypeAggUpdate, Seq: seq, Length: members,
	}}
}

func TestSilentHeadEvictedAndReleaseFenced(t *testing.T) {
	const (
		timeout = sim.Second
		grace   = sim.Second
	)
	s := newS(t, func(c *Config) {
		c.MinBufRTTs = 1
		c.InitialRTT = sim.Millisecond
		c.HeadSilenceTimeout = timeout
		c.FailoverGrace = grace
	})
	s.Write(0, make([]byte, 1000))
	s.Close(0) // data at seq 0, FIN at seq 1
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	// A head speaks for 4 leaves, confirmed through seq 0 only — then
	// goes completely silent.
	s.HandlePacket(kernel.Jiffy, 5, agg(1, 4))
	if s.Stats().AggUpdatesReceived != 1 || s.Members() != 1 {
		t.Fatalf("head not registered: %+v", s.Stats())
	}
	var now, evictedAt sim.Time
	for now = 2 * kernel.Jiffy; now < 4*timeout; now += kernel.Jiffy {
		s.Tick(now)
		s.Outgoing()
		if s.Stats().HeadsEvicted == 1 {
			evictedAt = now
			break
		}
	}
	if evictedAt == 0 {
		t.Fatal("silent head never evicted")
	}
	if evictedAt < timeout || evictedAt > 2*timeout {
		t.Errorf("evicted at %v, want within [1x, 2x] of the %v timeout", evictedAt, timeout)
	}
	if s.Stats().OrphanedLeaves != 4 {
		t.Errorf("OrphanedLeaves = %d, want the head's reported 4", s.Stats().OrphanedLeaves)
	}
	if s.Members() != 0 {
		t.Error("evicted head still in the membership table")
	}
	// The table is now empty, so no member lacks any seq — but the
	// orphans behind the dead head were last reported at seq 1. The
	// fence must hold the release there for the grace period.
	for now += kernel.Jiffy; now < evictedAt+grace-kernel.Jiffy; now += kernel.Jiffy {
		s.Tick(now)
		s.Outgoing()
	}
	if s.WindowBytes() == 0 {
		t.Fatal("release crossed the failover fence inside the grace period")
	}
	stalls := s.Stats().ReleaseStalls
	if stalls == 0 {
		t.Error("fenced release not counted as a stall")
	}
	// Grace over: the orphans had their chance to re-JOIN; release
	// proceeds and the sender finishes.
	for ; now < evictedAt+grace+sim.Second; now += kernel.Jiffy {
		s.Tick(now)
		s.Outgoing()
	}
	if s.WindowBytes() != 0 {
		t.Fatal("release still fenced after the grace expired")
	}
	if !s.Done() {
		t.Error("sender not done after the fence lifted")
	}
}

func TestOrphanGaugeReclaimedByJoinAndAggUpdate(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.HeadSilenceTimeout = sim.Second
		c.FailoverGrace = -1 // isolate the gauge from the fence
	})
	s.HandlePacket(0, 5, agg(0, 3))
	var now sim.Time
	for now = kernel.Jiffy; s.Stats().HeadsEvicted == 0 && now < 4*sim.Second; now += kernel.Jiffy {
		s.Tick(now)
		s.Outgoing()
	}
	if s.Stats().OrphanedLeaves != 3 {
		t.Fatalf("OrphanedLeaves = %d after eviction, want 3", s.Stats().OrphanedLeaves)
	}
	// One orphan re-homes with a direct JOIN.
	s.HandlePacket(now, 11, fb(packet.TypeJoin, 0))
	if s.Stats().OrphanedLeaves != 2 {
		t.Errorf("OrphanedLeaves = %d after direct JOIN, want 2", s.Stats().OrphanedLeaves)
	}
	// The same leaf retries its JOIN (a lost JOIN_RESPONSE, or the
	// failover handshake racing the first ask): idempotent — the member
	// is not duplicated and the gauge is not double-decremented.
	s.HandlePacket(now+kernel.Jiffy, 11, fb(packet.TypeJoin, 0))
	if s.Members() != 1 {
		t.Errorf("duplicate JOIN added a member: %d", s.Members())
	}
	if s.Stats().OrphanedLeaves != 2 {
		t.Errorf("OrphanedLeaves = %d after duplicate JOIN, want still 2", s.Stats().OrphanedLeaves)
	}
	if s.Stats().JoinsReceived != 2 {
		t.Errorf("JoinsReceived = %d, want 2", s.Stats().JoinsReceived)
	}
	// The head restarts and announces the rest of its subtree back.
	s.HandlePacket(now+2*kernel.Jiffy, 5, agg(0, 2))
	if s.Stats().OrphanedLeaves != 0 {
		t.Errorf("OrphanedLeaves = %d after the head's re-announce, want 0", s.Stats().OrphanedLeaves)
	}
}

// TestReleasedRangeNakPolicy pins the escalate-or-decline contract for
// NAKs below the send window: a departed leaf whose tombstone covers
// the range is a stale report and stays silent; a tombstoned HEAD's
// escalation always draws the explicit NAK_ERR (its recorded state is
// a subtree minimum — it proves nothing about the leaf that asked);
// and an unknown requester (a failed-over leaf NAKing directly) is
// refused rather than ignored.
func TestReleasedRangeNakPolicy(t *testing.T) {
	s := newS(t, func(c *Config) { c.Mode = RMC; c.MinBufRTTs = 1; c.InitialRTT = sim.Millisecond })
	s.Write(0, make([]byte, 1000))
	s.Close(0)
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	// Head 5 speaks for a subtree past the stream end; leaf 6 confirms
	// the same individually.
	s.HandlePacket(kernel.Jiffy, 5, agg(2, 3))
	s.HandlePacket(kernel.Jiffy, 6, fb(packet.TypeJoin, 0))
	s.HandlePacket(kernel.Jiffy, 6, fb(packet.TypeUpdate, 2))
	s.Tick(10 * kernel.Jiffy) // RMC: releases once the hold passes
	s.Outgoing()
	if s.WindowBytes() != 0 {
		t.Fatal("window not released")
	}
	s.HandlePacket(11*kernel.Jiffy, 5, fb(packet.TypeLeave, 2))
	s.HandlePacket(11*kernel.Jiffy, 6, fb(packet.TypeLeave, 2))
	s.Outgoing()

	// Departed leaf, range covered by its tombstone: a reordered stale
	// report — silence is correct.
	nak := fb(packet.TypeNak, 0)
	nak.Length = 1
	s.HandlePacket(12*kernel.Jiffy, 6, nak)
	if got := findOut(s.Outgoing(), packet.TypeNakErr); got != nil {
		t.Error("stale NAK from a covered leaf tombstone drew a NAK_ERR")
	}
	// Departed head, same range: the escalation must be refused
	// explicitly so the head can turn it into a HEAD_DECLINE.
	nak = fb(packet.TypeNak, 0)
	nak.Length = 2
	s.HandlePacket(13*kernel.Jiffy, 5, nak)
	ne := findOut(s.Outgoing(), packet.TypeNakErr)
	if ne == nil {
		t.Fatal("escalation from a tombstoned head drew silence, want NAK_ERR")
	}
	if ne.Dest.Multicast || ne.Dest.Node != 5 {
		t.Error("NAK_ERR not unicast to the head")
	}
	if ne.Pkt.Length != 2 {
		t.Errorf("NAK_ERR length = %d, want the full refused range 2", ne.Pkt.Length)
	}
	// Unknown requester (no membership, no tombstone): a failed-over
	// leaf asking directly must hear the refusal, never silence.
	nak = fb(packet.TypeNak, 0)
	nak.Length = 1
	s.HandlePacket(14*kernel.Jiffy, 7, nak)
	ne = findOut(s.Outgoing(), packet.TypeNakErr)
	if ne == nil {
		t.Fatal("NAK from an unknown requester for released data drew silence, want NAK_ERR")
	}
	if ne.Dest.Node != 7 {
		t.Error("NAK_ERR not unicast to the unknown requester")
	}
}
