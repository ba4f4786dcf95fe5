package sender

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/window"
)

// Local-recovery deferral (Config.LocalRecovery): a NAK-triggered
// retransmission waits half a round trip so a peer's multicast repair can
// serve the group first, and a repair the sender hears (like any group
// member, it hears them) cancels the retransmissions it covers.

// notBefore is when a retransmission requested now may go out.
func (s *Sender) notBefore(now sim.Time) sim.Time {
	if !s.cfg.LocalRecovery {
		return 0
	}
	return now + s.pacingRTT()/2
}

// onRepairHeard cancels deferred retransmissions covered by a repair a
// peer multicast.
func (s *Sender) onRepairHeard(p *packet.Packet) {
	if !s.cfg.LocalRecovery {
		return
	}
	s.st.RepairsHeard++
	seq := seqspace.Seq(p.Seq)
	// A split adds an entry, so the list is rebuilt rather than filtered
	// in place: in place, the second half of a split would overwrite the
	// next request before it is read.
	var kept []retransReq
	for _, req := range s.retrans {
		g := req.gap
		if !seqspace.InWindow(seq, g.From, g.Count()) {
			kept = append(kept, req)
			continue
		}
		s.st.RetransCancelled++
		// Split the range around the repaired sequence number.
		if seqspace.Before(g.From, seq) {
			kept = append(kept, retransReq{gap: window.Gap{From: g.From, To: seq}, notBefore: req.notBefore})
		}
		if seqspace.Before(seq+1, g.To) {
			kept = append(kept, retransReq{gap: window.Gap{From: seq + 1, To: g.To}, notBefore: req.notBefore})
		}
	}
	s.retrans = kept
}
