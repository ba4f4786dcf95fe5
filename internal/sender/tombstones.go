package sender

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// tombstone is the remembered final state of a departed member. head
// marks a departed (or evicted) repair head: its recorded state was a
// subtree minimum, not the member's own monotonic frontier, so the
// stale-NAK guard must not silently swallow NAKs against it — a leaf
// behind that minimum deserves an authoritative NAK_ERR.
type tombstone struct {
	next seqspace.Seq
	at   sim.Time
	head bool
}

// tombstones records the final cumulative state of members that left,
// so the stale-NAK guard still recognises a straggler (reordered or
// duplicated) NAK from a receiver that has since sent LEAVE — without
// it, release after the last LEAVE empties the window and the straggler
// would earn a spurious NAK_ERR. Entries expire after tombstoneTTL,
// swept at most once per TTL, so churn cannot grow the map without
// bound.
type tombstones struct {
	departed  map[packet.NodeID]tombstone
	lastSweep sim.Time
}

// bury tombstones a member about to leave the table, if its state was
// ever known.
func (s *Sender) bury(addr packet.NodeID, now sim.Time) {
	m := s.members.Lookup(addr)
	if m == nil || !m.KnownState {
		return
	}
	if s.tombs.departed == nil {
		s.tombs.departed = make(map[packet.NodeID]tombstone)
	}
	s.tombs.departed[m.Addr] = tombstone{next: m.NextExpected, at: now, head: m.Head}
}

// buried reports whether from is a departed member.
func (s *Sender) buried(from packet.NodeID) bool {
	_, ok := s.tombs.departed[from]
	return ok
}

// staleNak reports whether a NAK from from for released data up to to is
// a reordered stale report: the requester's own (monotonic) recorded
// state, live or tombstoned, already covers the range, so there is
// nothing to repair and nothing to mourn. Repair heads are exempt: their
// recorded state is a non-monotonic subtree minimum, so "covered" proves
// nothing about the leaf that escalated the NAK, and an escalation for
// released data must always draw the explicit refusal — the head turns
// it into a HEAD_DECLINE and the leaf stops waiting.
func (s *Sender) staleNak(from packet.NodeID, to seqspace.Seq) bool {
	if m := s.members.Lookup(from); m != nil {
		return !m.Head && m.KnownState && seqspace.AtOrAfter(m.NextExpected, to)
	}
	tb, ok := s.tombs.departed[from]
	return ok && !tb.head && seqspace.AtOrAfter(tb.next, to)
}

// sweepTombstones evicts tombstones older than the TTL. Walking the map
// at most once per TTL keeps the steady-state cost O(expired), not
// O(departed), per tick.
func (s *Sender) sweepTombstones(now sim.Time) {
	if at, due := s.tombSweepDue(); !due || now < at {
		return
	}
	s.tombs.lastSweep = now
	for addr, tb := range s.tombs.departed {
		if now-tb.at >= tombstoneTTL {
			delete(s.tombs.departed, addr)
		}
	}
}

// tombSweepDue is when the next tombstone sweep runs, if there is
// anything to sweep.
func (s *Sender) tombSweepDue() (sim.Time, bool) {
	return s.tombs.lastSweep + tombstoneTTL, len(s.tombs.departed) > 0
}
