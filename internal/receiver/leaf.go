package receiver

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/window"
)

// leaf is the role of a downstream member of a repair head
// (Config.RepairHead): membership feedback and retransmission requests
// go to the head instead of the sender, and the head is watched so that a
// dead one degrades the receiver to flat mode. The type holds the
// liveness state machine and knows nothing of windows or NAK lists; the
// Receiver methods below apply its verdicts to the machine.
type leaf struct {
	head    packet.NodeID
	budget  int      // Config.HeadNakRetryBudget
	silence sim.Time // Config.HeadSilenceTimeout
	readopt bool     // Config.ReadoptHead

	// down is set once the head has been declared dead and the leaf has
	// failed over to flat mode.
	down bool
	// waitSince is when the oldest still-unanswered head-bound request
	// went out (zero = nothing outstanding) — the head-silence clock.
	waitSince sim.Time
}

// attached reports whether a head currently stands between this
// receiver and the sender. False for a receiver that is not a leaf.
func (l *leaf) attached() bool { return l != nil && !l.down }

// takes reports whether the attached head, not the sender, is the
// upstream for p — JOIN, UPDATE, LEAVE, and NAK, which it turns into a
// HEAD_NAK — and starts the silence clock for those that expect a reply.
// Zero means "no request outstanding", so a request at exactly t=0 is
// recorded one tick late rather than not at all.
func (l *leaf) takes(now sim.Time, p *packet.Packet) bool {
	if !l.attached() {
		return false
	}
	switch p.Type {
	case packet.TypeUpdate:
		return true
	case packet.TypeNak:
		p.Type = packet.TypeHeadNak
	case packet.TypeJoin, packet.TypeLeave:
	default:
		return false
	}
	if l.waitSince == 0 {
		l.waitSince = now
		if now == 0 {
			l.waitSince = 1
		}
	}
	return true
}

// silent reports whether the head has been silent past the timeout with
// a request outstanding. A request answered indirectly (the sender's
// multicast retransmission filled the gap, say) leaves nothing
// outstanding, which resets the clock.
func (l *leaf) silent(now sim.Time, outstanding bool) bool {
	if !l.attached() || l.waitSince == 0 || l.silence <= 0 {
		return false
	}
	if !outstanding {
		l.waitSince = 0
		return false
	}
	return now-l.waitSince >= l.silence
}

// backoff is the interval before the tries-th NAK to the head is
// repeated: exponential, so a dead head is detected within the retry
// budget without flooding it first.
func (l *leaf) backoff(base sim.Time, tries int) sim.Time {
	return base << uint(min(max(tries-1, 0), 6))
}

// spent reports whether tries unanswered NAKs for one packet exhaust the
// retry budget.
func (l *leaf) spent(tries int) bool { return l.budget > 0 && tries > l.budget }

// fromHead notes traffic from the configured head, which proves it alive
// (and re-attaches a failed-over leaf when re-adoption is on). It reports
// whether p must be dropped: a stale JOIN_RESPONSE from a head still
// considered dead must not complete the handshake re-homed to the sender.
func (r *Receiver) fromHead(now sim.Time, from packet.NodeID, p *packet.Packet) (drop bool) {
	l := r.leaf
	if l == nil || from == 0 || from != l.head {
		return false
	}
	switch {
	case !l.down:
		l.waitSince = 0
	case l.readopt:
		r.readoptHead(now)
	}
	return l.down && p.Type == packet.TypeJoinResponse
}

// headPolicy is the NAK retry policy for e while its requests go to the
// head — the leaf is attached and the head has not declined the packet:
// the wait before the next one, and whether the budget is spent.
func (r *Receiver) headPolicy(e *nakEntry) (wait sim.Time, spent, ok bool) {
	if !r.leaf.attached() || e.direct {
		return 0, false, false
	}
	return r.leaf.backoff(nakRetryInterval, e.tries), r.leaf.spent(e.tries), true
}

// watchHead runs the silence clock against what the machine still has
// outstanding.
func (r *Receiver) watchHead(now sim.Time) {
	outstanding := r.joined && !r.joinAcked || len(r.pending) > 0 || r.leaveSent && !r.leaveAcked
	if r.leaf.silent(now, outstanding) {
		r.failover(now)
	}
}

// onHeadDecline processes the head's explicit refusal: the covered gaps
// re-home to end-to-end recovery — further NAKs for them go straight to
// the sender.
func (r *Receiver) onHeadDecline(now sim.Time, from packet.NodeID, p *packet.Packet) {
	if !r.leaf.attached() || from == 0 || from != r.leaf.head {
		return
	}
	r.st.HeadDeclinesHeard++
	changed := false
	g := window.GapOf(p)
	for s := g.From; seqspace.Before(s, g.To); s++ {
		if e, ok := r.pending[s]; ok && !e.direct {
			e.direct, e.tries, e.deferUntil = true, 0, 0
			changed = true
		}
	}
	if changed {
		r.nakScan(now, onTimer)
	}
}

// failover degrades a leaf to flat mode: the configured repair head is
// declared dead, so membership and recovery re-home to the sender.
func (r *Receiver) failover(now sim.Time) {
	if !r.leaf.attached() {
		return
	}
	r.leaf.down, r.leaf.waitSince = true, 0
	r.st.HeadFailovers++
	trace.Emit(r.cfg.Trace, now, trace.HeadFailover, uint32(r.wnd.Next()), int64(r.leaf.head))
	if r.joined && !r.finDelivered {
		r.rejoin(now)
	}
	// Pending recovery restarts cleanly against the sender.
	for _, e := range r.pending {
		e.tries, e.deferUntil = 0, 0
	}
	r.nakScan(now, onTimer)
	if r.leaveSent && !r.leaveAcked {
		// The LEAVE went to the dead head; close membership with the
		// sender directly.
		r.sendState(now, packet.TypeLeave, upstream)
	}
}

// readoptHead re-attaches a failed-over leaf to its configured head —
// called when head traffic reappears and ReadoptHead is on.
func (r *Receiver) readoptHead(now sim.Time) {
	r.leaf.down, r.leaf.waitSince = false, 0
	r.st.HeadReadoptions++
	trace.Emit(r.cfg.Trace, now, trace.HeadReadopted, uint32(r.wnd.Next()), int64(r.leaf.head))
	for _, e := range r.pending {
		e.direct = false
	}
	if r.joined && !r.finDelivered {
		// Hand membership back to the head, and retire the direct sender
		// membership so the sender returns to O(heads) state — without
		// touching this leaf's own LEAVE handshake state.
		r.rejoin(now)
		r.sendState(now, packet.TypeLeave, toSender)
	}
}
