package sender

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/trace"
)

// repairTier is the sender's side of the hierarchical repair tier: repair
// heads enter the membership table through AGG_UPDATE, a head gone silent
// is evicted (Config.HeadSilenceTimeout), and the release fence holds
// release at the lowest evicted head's last reported subtree minimum
// until the grace expires (Config.FailoverGrace) — its orphaned leaves
// are not in the table yet. lastSweep amortizes the eviction sweep.
type repairTier struct {
	lastSweep sim.Time
	fence     seqspace.Seq
	fenceTill sim.Time
}

// onAggUpdate processes one aggregated UPDATE from a repair head: Seq is
// the minimum next-expected sequence number over the head's whole
// subtree, Length its downstream member count. The head is registered as
// a member if its JOIN was lost, and its entry is updated
// non-monotonically — a new leaf joining behind the subtree front
// legitimately regresses the minimum.
func (s *Sender) onAggUpdate(now sim.Time, from packet.NodeID, p *packet.Packet) {
	s.st.AggUpdatesReceived++
	s.sampleProbeRTT(now, from)
	m, _ := s.admit(now, from, p)
	wasHead := m.Head
	s.members.UpdateAggregate(from, seqspace.Seq(p.Seq), int(p.Length), now)
	// A head announcing itself (first AGG_UPDATE after a restart, or a
	// re-JOIN after eviction) reclaims its reported subtree from the
	// orphan gauge: those leaves are spoken for again.
	if !wasHead && s.st.OrphanedLeaves > 0 {
		s.st.OrphanedLeaves = max(s.st.OrphanedLeaves-int64(p.Length), 0)
	}
}

// rehomed counts a new member admitted by a direct JOIN against the
// orphan gauge. The gauge is an approximation — the sender cannot tell a
// re-homing orphan from a genuinely new receiver — but it decays to zero
// as the orphaned population drains, which is the signal the operator
// needs.
func (s *Sender) rehomed() {
	if s.st.OrphanedLeaves > 0 {
		s.st.OrphanedLeaves--
	}
}

// sweepSilentHeads evicts repair heads that have gone completely silent
// past the timeout. The table is walked at most every quarter timeout,
// so a dead head is detected within 1.25 timeouts at O(members) cost per
// sweep, not per tick. Each eviction tombstones the head (so straggler
// escalations still draw NAK_ERRs, never silence), arms the release fence
// at its last reported subtree minimum, and charges its reported
// downstream count to the orphaned-leaves gauge.
func (s *Sender) sweepSilentHeads(now sim.Time) {
	if at, due := s.headSweepDue(); !due || now < at {
		return
	}
	s.heads.lastSweep = now
	for _, m := range s.members.StaleHeads(now, s.cfg.HeadSilenceTimeout, nil) {
		s.bury(m.Addr, now)
		if m.KnownState && s.cfg.FailoverGrace > 0 {
			if s.heads.fenceTill == 0 || seqspace.Before(m.NextExpected, s.heads.fence) {
				s.heads.fence = m.NextExpected
			}
			s.heads.fenceTill = max(s.heads.fenceTill, now+s.cfg.FailoverGrace)
		}
		s.st.HeadsEvicted++
		s.st.OrphanedLeaves += int64(m.Members)
		trace.Emit(s.cfg.Trace, now, trace.HeadEvicted, uint32(m.NextExpected), int64(m.Members))
		s.members.Remove(m.Addr)
	}
}

// headSweepDue is when the next eviction sweep runs, if heads are
// tracked and the sweep is enabled.
func (s *Sender) headSweepDue() (sim.Time, bool) {
	if s.cfg.HeadSilenceTimeout <= 0 || s.members.Heads() == 0 {
		return 0, false
	}
	return s.heads.lastSweep + s.cfg.HeadSilenceTimeout/4, true
}

// fenced reports whether the failover fence covers seq, and until when.
func (s *Sender) fenced(seq seqspace.Seq) (sim.Time, bool) {
	return s.heads.fenceTill, s.heads.fenceTill != 0 && seqspace.AtOrAfter(seq, s.heads.fence)
}

// liftFence ends the failover grace: the orphans had their chance to
// re-JOIN, and their entries (if any) gate release the normal way.
func (s *Sender) liftFence() { s.heads.fenceTill = 0 }
