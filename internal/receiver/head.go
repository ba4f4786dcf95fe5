package receiver

import (
	"repro/internal/packet"
	"repro/internal/repair"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/window"
)

// head is the repair-head role (Config.Head): "a receiver plus a repair
// server". The member table, retained window, suppression and decline
// memory are repair.Head's; this file is the glue that lets it speak
// through the receiver — member JOIN/UPDATE/LEAVE/HEAD_NAK service, the
// decline relay, the AGG_UPDATE that replaces the Update Generator, and
// the deferred LEAVE.
type head struct {
	*repair.Head
	// drainStart is when a departing head began waiting for its subtree
	// to drain (deferred LEAVE); bounded by the head's LeaveDrainTimeout.
	drainStart sim.Time
}

func newHead(cfg Config, wndPackets int, st *stats.Receiver) *head {
	hc := *cfg.Head
	// The head's retained window must outlast the receive window so an
	// evicted packet is always one the application (and hence the subtree
	// front, which the aggregate clamps releases to) is past.
	if hc.WindowPackets < 2*wndPackets {
		hc.WindowPackets = 2 * wndPackets
	}
	return &head{Head: repair.NewHead(0, hc, cfg.RecyclePackets, st)}
}

// reportedNext is the next-expected sequence number this receiver
// reports upstream. A repair head speaks for its subtree: every packet
// that updates the sender's membership state carries the aggregate
// minimum, never the head's own frontier — otherwise the sender could
// release data a downstream member still needs.
func (r *Receiver) reportedNext() seqspace.Seq {
	next := r.wnd.Next()
	if r.head != nil {
		next, _ = r.head.Aggregate(next)
	}
	return next
}

// report answers the sender's question "how far are you": a flat
// receiver with an immediate UPDATE, and only when it has the data asked
// about; a head always, with the aggregate — when only members lag, the
// AGG_UPDATE tells the sender how far the subtree actually is, and member
// HEAD_NAKs drive the repairs.
func (r *Receiver) report(now sim.Time, have bool) {
	switch {
	case r.head != nil:
		r.sendAggUpdate(now)
	case have:
		r.sendUpdate(now)
	}
}

// sendAggUpdate emits one aggregated UPDATE to the sender: the minimum
// next-expected sequence number over the head and its subtree, and the
// downstream member count.
func (r *Receiver) sendAggUpdate(now sim.Time) {
	min, members := r.head.Aggregate(r.wnd.Next())
	r.st.AggUpdatesSent++
	trace.Emit(r.cfg.Trace, now, trace.AggUpdateSent, uint32(min), int64(members))
	r.send(now, &packet.Packet{Header: packet.Header{
		Type:   packet.TypeAggUpdate,
		Seq:    uint32(min),
		Length: uint32(members),
	}}, upstream, 0)
}

// onMember serves one packet from a downstream member. JOIN and LEAVE
// get the same handshake responses the sender gives, so the leaf's JOIN
// retry loop and RTT estimate work unchanged.
func (r *Receiver) onMember(now sim.Time, from packet.NodeID, p *packet.Packet) {
	if p.Type == packet.TypeHeadNak {
		r.onHeadNak(now, from, p)
		return
	}
	r.head.Update(now, from, seqspace.Seq(p.Seq))
	switch p.Type {
	case packet.TypeJoin:
		r.answerMember(now, from, packet.TypeJoinResponse, p.Seq)
	case packet.TypeLeave:
		r.head.Leave(from)
		r.answerMember(now, from, packet.TypeLeaveResponse, p.Seq)
		r.maybeLeave(now)
	}
}

func (r *Receiver) answerMember(now sim.Time, to packet.NodeID, ty packet.Type, seq uint32) {
	r.send(now, &packet.Packet{Header: packet.Header{Type: ty, Seq: seq}}, toNode, to)
}

// onHeadNak services a downstream retransmission request: each
// requested sequence number is answered from the head's retained window
// (or the receive window) with a multicast repair into the subtree,
// suppressed if the same number was served within the suppression
// interval, or — when the head does not hold the data either — escalated
// to the sender as an ordinary NAK, unless the sender already refused
// it: re-escalating cannot help then, so the answer is an explicit
// decline. Consecutive escalations, and consecutive declines, coalesce.
func (r *Receiver) onHeadNak(now sim.Time, from packet.NodeID, p *packet.Packet) {
	r.st.HeadNaksReceived++
	// The requester's rcv_nxt rides in RateAdv, like a NAK's.
	r.head.Update(now, from, seqspace.Seq(p.RateAdv))
	var run window.Gap // the escalation or decline being coalesced
	var declining bool
	flush := func() {
		switch {
		case run.To == run.From:
		case declining:
			r.sendDecline(now, run)
		default:
			trace.Emit(r.cfg.Trace, now, trace.HeadNakEscalated, uint32(run.From), int64(run.Count()))
			// An escalated NAK's timing is multi-hop (leaf -> head ->
			// sender): marked re-asked so it never feeds the RTT estimate.
			r.sendNak(now, run, true, false)
		}
		run.From = run.To
	}
	g := window.GapOf(p)
	for seq := g.From; seqspace.Before(seq, g.To); seq++ {
		if r.head.Handled(now, seq) {
			r.st.HeadNaksSuppressed++
			continue
		}
		src, ok := r.head.Retained(seq)
		if !ok {
			src, ok = r.wnd.PacketAt(seq)
		}
		if ok {
			flush()
			r.st.HeadNaksAnswered++
			trace.Emit(r.cfg.Trace, now, trace.HeadRepairSent, uint32(seq), int64(len(src.Payload)))
			r.sendRepair(now, src)
			continue
		}
		decline := r.head.Declined(now, seq)
		if !decline {
			r.st.HeadNaksEscalated++
		}
		if decline != declining {
			flush()
		}
		if run.To == run.From {
			run.From, run.To, declining = seq, seq, decline
		}
		// The run counts requests, not span: a suppressed number inside it
		// does not split it.
		run.To++
	}
	flush()
}

// relayRefusal is a head's handling of the sender's NAK_ERR,
// escalate-or-decline: the subtree member that asked must hear an
// explicit refusal, never silence — record the range and multicast a
// HEAD_DECLINE so leaves re-home their recovery end-to-end. It reports
// false for a receiver that is not a head, whose own hole this is.
func (r *Receiver) relayRefusal(now sim.Time, g window.Gap) bool {
	if r.head == nil {
		return false
	}
	for s := g.From; seqspace.Before(s, g.To); s++ {
		r.head.Decline(now, s)
	}
	r.sendDecline(now, g)
	return true
}

// sendDecline multicasts a HEAD_DECLINE into the subtree: an explicit
// refusal for g, which the sender has released and the head cannot
// serve.
func (r *Receiver) sendDecline(now sim.Time, g window.Gap) {
	r.st.HeadDeclinesSent++
	trace.Emit(r.cfg.Trace, now, trace.HeadDeclineSent, uint32(g.From), int64(g.Count()))
	r.send(now, &packet.Packet{Header: packet.Header{
		Type:   packet.TypeHeadDecline,
		Seq:    uint32(g.From),
		Length: g.Count(),
	}}, toGroup, 0)
}

// maybeLeave sends the head's deferred LEAVE: a head that has delivered
// the whole stream holds its LEAVE until every downstream member is
// past the stream end (or evicted by the member timeout) — leaving
// earlier would drop the subtree minimum from the sender's release
// check while members still need repairs.
func (r *Receiver) maybeLeave(now sim.Time) {
	if !r.finDelivered || r.leaveSent {
		return
	}
	if r.reportedNext() != r.wnd.Next() { // a member is still behind the stream end
		if r.head.drainStart == 0 {
			r.head.drainStart = now
			return
		}
		if now-r.head.drainStart < repair.LeaveDrainTimeout {
			return
		}
		// Drain bound hit: one dead or wedged member must not hold the
		// head's departure (and the sender's state for it) indefinitely.
		r.st.HeadDrainTimeouts++
		trace.Emit(r.cfg.Trace, now, trace.HeadDrainTimeout,
			uint32(r.wnd.Next()), int64(r.head.Members()))
	}
	r.leaveSent = true
	r.sendState(now, packet.TypeLeave, upstream)
}
