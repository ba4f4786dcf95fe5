// Package sender implements the H-RMC sender of Figure 8 as a sans-I/O
// state machine: the Application Interface (fragmentation into the send
// window), the Transmitter, the Feedback Processor, the
// Retransmitter, the Keepalive Controller, and probe_members — the
// buffer-release safety check that distinguishes H-RMC from the pure
// NAK-based RMC baseline.
//
// The machine is driven from outside: the owner writes stream data with
// Write, feeds arriving feedback with HandlePacket, runs the transmit
// tick with Tick — every jiffy like the paper's transmit_timer, or only
// when NextWake says something is due — and drains queued outgoing
// packets with Outgoing. Both ways of ticking emit the same packets.
//
// This file is the machine of Figure 8 and nothing else. The extension
// roles a sender can additionally hold each live in their own file —
// heads.go (repair heads, their eviction and the failover fence),
// tombstones.go (departed members and the stale-NAK guard), parity.go
// (the FEC parity pipeline), recovery.go (local-recovery deferral),
// probes.go (early and multicast probes) — and the machine consults them
// only at the seams listed in roles.go. config.go holds Config and the
// types a driver drains.
package sender

import (
	"repro/internal/fec"
	"repro/internal/kernel"
	"repro/internal/membership"
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/rtt"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/window"
)

// retransReq is one queued retransmission range; notBefore defers it
// under the local-recovery extension.
type retransReq struct {
	gap       window.Gap
	notBefore sim.Time
}

// Sender is the H-RMC sender state machine. Not safe for concurrent use;
// drivers serialize access.
type Sender struct {
	cfg     Config
	wnd     *window.SendWindow
	members membership.Table
	rc      *rate.Controller
	est     *rtt.Estimator
	st      *stats.Sender

	out []Out

	// Retransmission request ranges, coalesced by the Retransmitter.
	retrans []retransReq

	// Keepalive Controller state.
	kaTimer   kernel.Timer
	kaBackoff sim.Time

	closed     bool // Close called; a FIN packet is (or will be) queued
	pendingFIN bool // FIN packet could not be inserted yet (window full)

	// judged is the next sequence number whose release decision has not
	// yet been scored for the Figure 3 metric: each packet is judged
	// exactly once, at the moment its MINBUF deadline first passes,
	// independent of whether H-RMC then stalls the release.
	judged    seqspace.Seq
	stalled   bool                 // window release is currently blocked on receiver info
	blocked   bool                 // full window, all transmitted, front not freed (ReleaseBlockedMicros)
	blockedAt sim.Time             // booked up to here while blocked
	primed    bool                 // first transmit tick has granted its one-beat budget
	lastTick  sim.Time             // when Tick last ran: NextWake's "now"
	lacking   []*membership.Member // members the release rule found lacking the front
	maxJoined int
	// cutEpoch is snd_nxt at the last NAK-driven rate cut: NAKs for
	// data sent before the cut describe the same loss event and do not
	// cut again (the rate-based analogue of TCP's one-cut-per-window).
	// Before the first cut it is the stream's first sequence number.
	cutEpoch seqspace.Seq

	// The roles (see roles.go).
	heads repairTier
	tombs tombstones
	fec   parity
}

// New creates a sender.
func New(cfg Config) *Sender {
	cfg.sanitize()
	s := &Sender{
		cfg:      cfg,
		wnd:      window.NewSendWindow(cfg.SndBuf, cfg.InitialSeq),
		rc:       rate.New(cfg.Rate),
		est:      rtt.New(cfg.InitialRTT),
		st:       &stats.Sender{},
		judged:   cfg.InitialSeq,
		cutEpoch: cfg.InitialSeq,
	}
	if cfg.FECGroupSize > 0 {
		s.fec.enc = fec.NewEncoder(cfg.FECGroupSize)
	}
	return s
}

// Stats returns the sender's counters.
func (s *Sender) Stats() *stats.Sender { return s.st }

// pacingRTT is the round-trip time used for timer-granular decisions
// (growth pacing, cut pacing, hold times). A transmitter that acts once
// per beat cannot act on round trips shorter than that, so the estimate
// is floored at two beats — two jiffies under the paper's 10 ms timer.
func (s *Sender) pacingRTT() sim.Time {
	return max(s.est.RTT(), 2*s.rc.Beat())
}

// RTT returns the current worst-receiver round-trip estimate.
func (s *Sender) RTT() sim.Time { return s.est.RTT() }

// Rate returns the current transmission rate in bytes/second.
func (s *Sender) Rate(now sim.Time) float64 { return s.rc.Rate(now) }

// MaxRate returns the current flow-control ceiling in bytes/second.
func (s *Sender) MaxRate() float64 { return s.rc.Ceiling() }

// MinRate returns the rate-control floor in bytes/second, the pacing
// minimum the flow cannot go below.
func (s *Sender) MinRate() float64 { return s.rc.MinRate() }

// SetMaxRate adjusts the flow-control ceiling at runtime. The session
// layer's fair-share governor calls this to keep the aggregate rate of
// all flows sharing a line under a global budget; the driver must
// serialize it with the other machine entry points.
func (s *Sender) SetMaxRate(bytesPerSec float64) { s.rc.SetCeiling(bytesPerSec) }

// Members returns the current receiver count.
func (s *Sender) Members() int { return s.members.Len() }

// MaxJoined returns the high-water mark of the membership table — the
// most entries (leaves or repair heads) the sender ever tracked at
// once. The hierarchy scale tests assert this stays O(heads).
func (s *Sender) MaxJoined() int { return s.maxJoined }

// Stream returns the stream's geometry: the payload bytes of a full
// DATA packet and the first sequence number.
func (s *Sender) Stream() (mss int, initialSeq seqspace.Seq) { return s.cfg.MSS, s.cfg.InitialSeq }

// WindowBytes returns the bytes currently buffered in the send window.
func (s *Sender) WindowBytes() int { return s.wnd.Bytes() }

// Outgoing drains the queued outgoing packets in order.
func (s *Sender) Outgoing() []Out {
	out := s.out
	s.out = nil
	return out
}

// Recycle gives a slice obtained from Outgoing back to the sender so
// emit reuses its capacity instead of regrowing from nil every drain
// cycle. The caller must be completely done with the slice; drivers
// that keep the slice (or don't care) simply never call it.
func (s *Sender) Recycle(out []Out) {
	if s.out != nil || cap(out) == 0 {
		return
	}
	clear(out)
	s.out = out[:0]
}

// emit queues one outgoing packet, stamping the ports and the current
// rate advertisement.
func (s *Sender) emit(o Out) {
	o.Pkt.SrcPort = s.cfg.LocalPort
	o.Pkt.DstPort = s.cfg.RemotePort
	o.Pkt.RateAdv = s.rc.Advertised()
	s.out = append(s.out, o)
}

// signal emits a header-only packet: a handshake answer, a NAK_ERR, a
// PROBE, a KEEPALIVE.
func (s *Sender) signal(h packet.Header, d Dest) {
	s.emit(Out{Pkt: &packet.Packet{Header: h}, Dest: d})
}

// Write fragments b into DATA packets and inserts them into the send
// window (hrmc_sendmsg). It returns the number of bytes consumed, which
// is less than len(b) when the window byte budget fills; the caller
// retries after the window advances. Write after Close panics: that is a
// caller bug.
func (s *Sender) Write(now sim.Time, b []byte) int {
	if s.closed {
		panic("sender: Write after Close")
	}
	n := 0
	for n < len(b) {
		chunk := min(len(b)-n, s.cfg.MSS)
		if !s.wnd.Fits(packet.HeaderSize + chunk) {
			break
		}
		// Chunk straight into a pooled packet: the payload backing array
		// is allocated (or recycled) once and lives until the window
		// releases the packet — one allocation per buffer lifetime, the
		// hold-until-release discipline of the paper's sk_buff handling.
		p := packet.GetBuf(chunk)
		p.Type = packet.TypeData
		p.Length = uint32(chunk)
		p.Payload = append(p.Payload[:0], b[n:n+chunk]...)
		_, _ = s.wnd.Insert(p) // cannot fail: it fits
		n += chunk
	}
	return n
}

// Close marks the end of the stream: a zero-length FIN DATA packet is
// appended after all written data. Reliable delivery of the FIN is
// governed by the same window machinery as data.
func (s *Sender) Close(now sim.Time) {
	if !s.closed {
		s.closed, s.pendingFIN = true, true
		s.tryQueueFIN()
	}
}

// tryQueueFIN inserts the pending FIN once the window has room for it.
func (s *Sender) tryQueueFIN() {
	if !s.pendingFIN || !s.wnd.Fits(packet.HeaderSize) {
		return
	}
	p := packet.Get()
	p.Type = packet.TypeData
	p.Flags = packet.FlagFIN
	_, _ = s.wnd.Insert(p) // cannot fail: it fits
	s.pendingFIN = false
}

// Done reports whether the stream is fully transmitted and released: the
// FIN was queued and every packet has left the send window. Under H-RMC
// this implies every member held all data at release time.
func (s *Sender) Done() bool {
	return s.closed && !s.pendingFIN && s.wnd.Len() == 0
}

// HandlePacket processes receiver feedback (hrmc_master_rcv on the send
// path). from is the receiver's unicast address.
func (s *Sender) HandlePacket(now sim.Time, from packet.NodeID, p *packet.Packet) {
	switch p.Type {
	case packet.TypeData:
		// A peer's multicast repair (local-recovery extension).
		s.onRepairHeard(p)
	case packet.TypeJoin:
		s.onJoin(now, from, p)
	case packet.TypeLeave:
		s.implicitJoin(now, from, p)
		s.onLeave(now, from, p)
	case packet.TypeNak:
		s.onNak(now, from, p)
	case packet.TypeControl:
		s.onControl(now, from, p)
	case packet.TypeUpdate:
		s.implicitJoin(now, from, p)
		s.onUpdate(now, from, p)
	case packet.TypeAggUpdate:
		s.onAggUpdate(now, from, p)
	}
}

// implicitJoin admits the source of an UPDATE or LEAVE that is neither a
// member nor tombstoned: its JOIN was lost. A receiver stops retrying the
// JOIN once its stream has ended, so without this a short stream can end
// with the sender still waiting for a receiver that has already finished
// and said so. NAK and CONTROL do not qualify: a leaf attached to a
// repair head sends those to the sender too (declined ranges, rate
// requests), and it is the head's member, not the sender's.
func (s *Sender) implicitJoin(now sim.Time, from packet.NodeID, p *packet.Packet) {
	if !s.buried(from) {
		s.admit(now, from, p)
	}
}

func (s *Sender) onJoin(now sim.Time, from packet.NodeID, p *packet.Packet) {
	s.st.JoinsReceived++
	m, added := s.admit(now, from, p)
	// An explicit JOIN — even from a known address — marks a (re)start:
	// the machine behind the address is new, and packets transmitted
	// before this moment are pre-history for RTT sampling purposes. (A
	// member re-timing its round trip, receiver.retime, is taken for one
	// too; all it loses is the NAK samples of packets already sent.)
	m.JoinedAt = now
	s.members.Update(from, seqspace.Seq(p.Seq), now)
	if added {
		// A direct JOIN may re-home a former leaf of an evicted head.
		s.rehomed()
		// The JOIN answers the first data packet the receiver saw; if that
		// packet (seq one below the receiver's next-expected) is still
		// buffered and was sent exactly once, its send time gives an
		// unambiguous round-trip sample (Karn), used to estimate the round
		// trip to the most distant receiver.
		if e := s.wnd.Entry(seqspace.Seq(p.Seq) - 1); e != nil && e.Tries == 1 {
			s.est.Sample(now - e.LastSent)
		}
	}
	s.signal(packet.Header{Type: packet.TypeJoinResponse, Seq: p.Seq}, Dest{Node: from})
}

func (s *Sender) onLeave(now sim.Time, from packet.NodeID, p *packet.Packet) {
	s.st.LeavesReceived++
	s.members.Update(from, seqspace.Seq(p.Seq), now)
	s.bury(from, now)
	s.members.Remove(from)
	trace.Emit(s.cfg.Trace, now, trace.MemberLeft, p.Seq, int64(s.members.Len()))
	s.signal(packet.Header{Type: packet.TypeLeaveResponse, Seq: p.Seq}, Dest{Node: from})
}

func (s *Sender) onNak(now sim.Time, from packet.NodeID, p *packet.Packet) {
	s.st.NaksReceived++
	// NAKs carry the receiver's next expected sequence number in the
	// rate-advertisement field (see the receiver package).
	s.sampleProbeRTT(now, from)
	s.members.Update(from, seqspace.Seq(p.RateAdv), now)
	gap := window.GapOf(p)
	// Per the paper, the worst-receiver RTT estimate "continues
	// updating ... based on incoming NAKs and rate-reduce requests":
	// the NAKed packet's first (sole) transmission to NAK arrival is a
	// Karn-unambiguous upper bound on the receiver's round trip. Karn
	// cuts both ways: the NAK itself must be the receiver's first ask
	// (Tries == 0) — a re-asked NAK's elapsed time includes the
	// receiver's retry backoff, which can reach seconds and would
	// poison the pacing estimate. The packet must also postdate the
	// requester's JOIN: a restarted head or re-homed leaf NAKs history
	// transmitted before it existed, and that elapsed time measures the
	// outage, not the network.
	if e := s.wnd.Entry(gap.From); e != nil && e.Tries == 1 && p.Tries == 0 {
		if m := s.members.Lookup(from); m != nil && e.FirstSent >= m.JoinedAt {
			s.est.Sample(now - e.FirstSent)
		}
	}
	// Clamp the request to the buffered range; anything below the window
	// base has been released.
	if seqspace.Before(gap.From, s.wnd.Base()) {
		if seqspace.AtOrBefore(gap.To, s.wnd.Base()) {
			// Entirely released. Only a request the requester's own state
			// does not already cover earns a NAK_ERR, and it echoes the
			// requested length so the refusal covers the whole range, not
			// just its first packet.
			if s.staleNak(from, gap.To) {
				return
			}
			s.st.NakErrsSent++
			trace.Emit(s.cfg.Trace, now, trace.NakErrSent, p.Seq, 0)
			s.signal(packet.Header{Type: packet.TypeNakErr, Seq: p.Seq, Length: p.Length}, Dest{Node: from})
			return
		}
		gap.From = s.wnd.Base()
	}
	if seqspace.After(gap.To, s.wnd.Next()) {
		gap.To = s.wnd.Next()
	}
	if gap.Count() > 0 {
		s.retrans = append(s.retrans, retransReq{gap: gap, notBefore: s.notBefore(now)})
	}
	// A NAK signals loss: cut the rate once per loss epoch — NAKs for
	// data transmitted before the previous cut report the same event.
	if seqspace.AtOrAfter(seqspace.Seq(p.Seq), s.cutEpoch) {
		s.cutEpoch = s.wnd.Next()
		s.rc.OnCongestion(now, s.pacingRTT(), 0)
		trace.Emit(s.cfg.Trace, now, trace.RateCut, p.Seq, int64(s.rc.Rate(now)))
	}
}

func (s *Sender) onControl(now sim.Time, from packet.NodeID, p *packet.Packet) {
	s.sampleProbeRTT(now, from)
	// Rate requests also feed the worst-receiver RTT estimate: the
	// receiver's next-expected field names the most recent in-order
	// packet it holds (Seq-1); its single transmission bounds the loop.
	if e := s.wnd.Entry(seqspace.Seq(p.Seq) - 1); e != nil && e.Tries == 1 {
		s.est.Sample(now - e.FirstSent)
	}
	s.members.Update(from, seqspace.Seq(p.Seq), now)
	if p.URG() {
		s.st.UrgentReceived++
		// The urgent stop spans two round trips of network quiet; it is
		// not a timer-granular pacing decision, so the measured RTT is
		// used unfloored — on a fast network a transiently overrun
		// receiver costs microseconds of quiet, not two jiffies. A
		// still-critical receiver extends the stop with further urgent
		// requests.
		s.rc.OnUrgent(now, s.est.RTT())
		trace.Emit(s.cfg.Trace, now, trace.RateStopped, p.Seq, 0)
	} else {
		s.st.RateRequestsReceived++
		s.rc.OnCongestion(now, s.pacingRTT(), float64(p.RateAdv))
		trace.Emit(s.cfg.Trace, now, trace.RateCut, p.Seq, int64(s.rc.Rate(now)))
	}
}

func (s *Sender) onUpdate(now sim.Time, from packet.NodeID, p *packet.Packet) {
	s.st.UpdatesReceived++
	s.sampleProbeRTT(now, from)
	s.members.Update(from, seqspace.Seq(p.Seq), now)
}

// sampleProbeRTT takes a Karn-safe round-trip sample when feedback
// answers an outstanding single-transmission probe.
func (s *Sender) sampleProbeRTT(now sim.Time, from packet.NodeID) {
	m := s.members.Lookup(from)
	if m == nil || !m.ProbeOutstanding || m.ProbeTries != 1 {
		return
	}
	// Any feedback from the probed receiver answers the probe for RTT
	// purposes; membership.Update clears the outstanding flag only when
	// the response actually covers the probed data.
	s.est.Sample(now - m.LastProbed)
	m.ProbeTries = 2 // consume the sample; further feedback is ambiguous
}

// Tick is the Transmitter (transmit_timer). It retransmits requested
// data first, transmits new data within the rate allowance, attempts
// window release (probing under H-RMC), and drives the Keepalive
// Controller. A tick before NextWake changes nothing a later one would
// not, so a driver may run it every jiffy or only when due.
func (s *Sender) Tick(now sim.Time) {
	s.lastTick = now
	s.tryQueueFIN()
	if !s.primed {
		// The transmit timer's first tick grants the budget of one full
		// beat, as if the timer had been running.
		s.primed = true
		s.rc.Allowance(now - s.rc.Beat())
	}
	// Retransmitter: requested data has priority over new data.
	allowance, sentAny := s.retransmit(now, s.rc.Allowance(now))

	// New data within the rate window. Tokens accumulate across ticks
	// (up to the burst cap, which always admits one full packet), so
	// rates below one packet per jiffy still pace correctly.
	for {
		seq, e := s.wnd.FirstUnsent()
		if e == nil || e.Pkt.WireSize() > allowance {
			break
		}
		allowance -= s.transmit(now, seq, e, false)
		sentAny = true
	}
	s.flushParity(now)

	// Window release (buffer space reclamation).
	s.tryRelease(now)

	// Rate growth happens only while there is demand.
	if sentAny {
		s.rc.MaybeGrow(now, s.pacingRTT())
		s.kaBackoff = 0
		s.kaTimer.Disarm()
	} else if s.needsKeepalive() {
		s.runKeepalive(now)
	}

	s.sweepSilentHeads(now)
	s.sweepTombstones(now)
}

// RefreshGauges brings the gauges among the counters up to now, for an
// observer about to read them (session snapshots, the control plane):
// the rate actually being paced and its current ceiling, plus the
// repair-tier shape of the membership table. No tick does this, so that
// a flow with nothing due — idle, or urgently stopped — still reads true.
func (s *Sender) RefreshGauges(now sim.Time) {
	s.st.RateBps = int64(s.rc.Rate(now))
	s.st.CeilingBps = int64(s.rc.Ceiling())
	s.st.RTTMicros = int64(s.est.RTT() / sim.Microsecond)
	s.st.RepairHeads = int64(s.members.Heads())
	s.st.DownstreamMembers = int64(s.members.Downstream())
}

// retransmit services the retransmission request list, multicasting the
// requested packets. Requests for a packet retransmitted within half a
// round trip are dropped: the retransmission is already in flight and
// several receivers NAKed the same loss.
func (s *Sender) retransmit(now sim.Time, allowance int) (int, bool) {
	if len(s.retrans) == 0 {
		return allowance, false
	}
	guard := s.pacingRTT() / 2
	sent := false
	pending := s.retrans
	s.retrans = nil
	for _, req := range pending {
		if req.notBefore > now {
			s.retrans = append(s.retrans, req)
			continue
		}
		g := req.gap
		for seq := g.From; seqspace.Before(seq, g.To); seq++ {
			e := s.wnd.Entry(seq)
			if e == nil || !e.Sent() || now-e.LastSent < guard {
				continue
			}
			if allowance <= 0 {
				// Out of rate budget: requeue the tail for the next tick.
				s.retrans = append(s.retrans, retransReq{gap: window.Gap{From: seq, To: g.To}})
				break
			}
			allowance -= s.transmit(now, seq, e, true)
			sent = true
		}
	}
	return allowance, sent
}

// transmit multicasts one window entry and spends its wire size from the
// rate allowance, which it returns. The window packet itself is emitted
// (no clone): the driver copies or encodes it before the next machine
// entry point runs, and the retransmit guard (half an RTT between
// transmissions of one sequence) keeps a single buffer from being
// emitted twice in one drain.
func (s *Sender) transmit(now sim.Time, seq seqspace.Seq, e *window.SendEntry, isRetrans bool) int {
	e.Tries++
	if e.Tries == 1 {
		e.FirstSent = now
	}
	e.LastSent = now
	pkt := e.Pkt
	pkt.Seq = uint32(seq)
	pkt.Tries = uint8(min(e.Tries-1, 255))
	s.emit(Out{Pkt: pkt, Dest: Dest{Multicast: true}, Windowed: true})
	if isRetrans {
		s.st.Retransmissions++
		s.st.RetransBytes += int64(len(pkt.Payload))
		trace.Emit(s.cfg.Trace, now, trace.SendRetransmission, pkt.Seq, int64(len(pkt.Payload)))
	} else {
		s.st.PacketsSent++
		s.st.BytesSent += int64(len(pkt.Payload))
		trace.Emit(s.cfg.Trace, now, trace.SendData, pkt.Seq, int64(len(pkt.Payload)))
		s.protect(now, pkt)
	}
	s.rc.Spend(pkt.WireSize())
	return pkt.WireSize()
}

// full reports whether the window lacks room for another packet.
func (s *Sender) full() bool { return s.wnd.Free() < s.cfg.MSS+packet.HeaderSize }

// tryRelease runs the release rule, counts a new stall episode (not how
// often a driver looks at one) and books the time the window is blocked
// on receivers: no room for another packet, nothing left to transmit,
// the front not freed.
func (s *Sender) tryRelease(now sim.Time) {
	stalled := s.release(now)
	if stalled && !s.stalled {
		s.st.ReleaseStalls++
	}
	s.stalled = stalled
	_, unsent := s.wnd.FirstUnsent()
	s.bookBlocked(now, s.wnd.Len() > 0 && unsent == nil && s.full())
}

// action is what the release rule does with the window front now. The
// order matters: free through stallJoins score the front for Figure 3,
// and stallProbe on stall the window.
type action uint8

const (
	hold       action = iota // nothing yet
	probeEarly               // probe the members lacking it, ahead of its deadline
	free                     // release it
	stallProbe               // stall and probe the members lacking it
	stallJoins               // stall: ExpectedReceivers have not all joined
	stallFence               // stall at the failover fence
	fenceOver                // the failover fence expired: lift it and decide again
)

// rule is the release rule for the window front, the one place it is
// decided: what to do with the front at now, and when that answer next
// changes without new input, if it will — the front freed, its MINBUF
// deadline scored, or a lacking member probed. A packet becomes a
// release candidate MINBUF round trips after its last transmission. RMC
// then frees it on the timer alone (a NAK for it later earns a NAK_ERR).
// H-RMC frees it only once ExpectedReceivers have joined and every member
// is known to hold it; otherwise the window stalls and the lacking
// members (s.lacking) are probed. minHold is MINBUF round trips.
func (s *Sender) rule(now, minHold sim.Time) (act action, wake sim.Time, wakes bool) {
	e := s.wnd.Front()
	if e == nil || !e.Sent() {
		return hold, 0, false
	}
	seq := s.wnd.Base()
	if till, ok := s.fenced(seq); ok && now >= till {
		return fenceOver, till, true
	} else if ok {
		return stallFence, till, true
	}
	deadline := e.LastSent + minHold
	s.lacking = s.members.Lacking(seq, s.lacking[:0])
	complete := len(s.lacking) == 0
	joined := s.cfg.ExpectedReceivers <= 0 || s.maxJoined >= s.cfg.ExpectedReceivers
	switch {
	case s.cfg.Mode != HRMC, complete && s.cfg.ExpectedReceivers <= 0:
		wake = deadline
	case complete && joined:
		// Early release, for known populations only: the MINBUF hold
		// keeps the packet available for repair while the member picture
		// may still grow (a JOIN in flight) or shift. Once
		// ExpectedReceivers have joined and every current member's
		// cumulative state covers the packet, the picture is provably
		// final — no receiver that matters can still NAK it — so it is
		// freed ahead of the deadline. Unknown populations always wait out
		// the timer: the hold is their grace period for late joiners. An
		// entry transmitted at this very timestamp is never released: it
		// may still sit un-drained (and un-retained) in the outgoing
		// queue, and freeing it would zero the emitted packet under the
		// driver.
		wake = e.LastSent + 1
	default:
		// Lacking members are probed from the deadline on, or earlier
		// under the early-probe extension; waiting for JOINs, only early.
		probeAt := deadline - s.probeLead()
		switch {
		case now >= deadline && !joined:
			act = stallJoins
		case now >= deadline:
			act = stallProbe
		case now >= probeAt && !complete:
			act = probeEarly
		}
		if !joined {
			// Only the Figure 3 score is on the clock.
			return act, deadline, seq == s.judged
		}
		due := s.probeDue(s.lacking[0], seq)
		for _, m := range s.lacking[1:] {
			due = min(due, s.probeDue(m, seq))
		}
		return act, max(probeAt, due), true
	}
	if now >= wake {
		act = free
	}
	return act, wake, true
}

// release frees the window front for as long as the release rule allows
// and reports whether the window is stalled on receiver information.
// Like the kernel, buffer space is reclaimed lazily: only when the window
// lacks room for another packet, or when the stream is closed and
// draining. With large kernel buffers packets therefore sit well past
// their MINBUF deadline before release, which is why buffer size
// improves the Figure 3 metric.
func (s *Sender) release(now sim.Time) (stalled bool) {
	if !s.closed && !s.full() {
		return false
	}
	minHold := sim.Time(s.cfg.MinBufRTTs) * s.pacingRTT()
	for {
		act, _, _ := s.rule(now, minHold)
		seq := s.wnd.Base()
		if act >= free && act <= stallJoins && seq == s.judged {
			// Figure 3 metric: each packet is scored once, when its MINBUF
			// deadline first passes or it is freed ahead of it, whether or
			// not H-RMC then stalls.
			s.st.Releases++
			if len(s.lacking) == 0 {
				s.st.ReleasesCompleteInfo++
			}
			s.judged++
		}
		switch act {
		case fenceOver:
			s.liftFence()
			continue
		case free:
			e := s.wnd.Release()
			trace.Emit(s.cfg.Trace, now, trace.Release, uint32(seq), int64(e.Pkt.WireSize()))
			// The window's reference is done; the pool recycles the buffer
			// once any in-flight send (shared poller) drops its Retain.
			packet.Put(e.Pkt)
			e.Pkt = nil
			continue
		case stallProbe:
			trace.Emit(s.cfg.Trace, now, trace.ReleaseStall, uint32(seq), 0)
			fallthrough
		case probeEarly:
			s.probeLacking(now, seq)
		}
		return act >= stallProbe
	}
}

// TryRelease attempts window release outside the tick, with the same
// rules as the Transmitter's release step. Drivers call it right after
// feeding feedback (HandlePacket) so a blocked Write unblocks the moment
// an UPDATE completes the membership picture, instead of at the
// machine's next deadline.
func (s *Sender) TryRelease(now sim.Time) { s.tryRelease(now) }

// ReleaseBuffers force-releases every buffered packet back to the
// pool, bypassing the reliability rules. It is for teardown of an
// aborted flow only: the machine must not be asked to transmit
// afterwards.
func (s *Sender) ReleaseBuffers() {
	for e := s.wnd.Release(); e != nil; e = s.wnd.Release() {
		packet.Put(e.Pkt)
		e.Pkt = nil
	}
}

// probeLacking unicasts PROBE packets to the members the release rule
// found lacking seq, rate-limited per member by the probe timeout; the
// multicast-probe extension may send one multicast PROBE instead.
func (s *Sender) probeLacking(now sim.Time, seq seqspace.Seq) {
	due := s.lacking[:0]
	for _, m := range s.lacking {
		if now >= s.probeDue(m, seq) {
			s.markProbed(m, seq, now)
			due = append(due, m)
		}
	}
	if len(due) == 0 || s.probeGroup(now, seq, len(due)) {
		return
	}
	for _, m := range due {
		s.st.ProbesSent++
		trace.Emit(s.cfg.Trace, now, trace.ProbeSent, uint32(seq), 1)
		s.signal(packet.Header{Type: packet.TypeProbe, Seq: uint32(seq)}, Dest{Node: m.Addr})
	}
}

// probeDue is the earliest time m may be probed for seq: at once, unless
// an equivalent probe is in flight — then after an RTO (floored at two
// beats of timer granularity), backed off exponentially with the
// per-member retry count.
func (s *Sender) probeDue(m *membership.Member, seq seqspace.Seq) sim.Time {
	if !m.ProbeOutstanding || seqspace.After(seq, m.ProbeSeq) {
		return 0
	}
	spacing := max(s.est.RTO(), 2*s.rc.Beat())
	return m.LastProbed + spacing<<uint(min(max(m.ProbeTries-1, 0), 6))
}

func (s *Sender) markProbed(m *membership.Member, seq seqspace.Seq, now sim.Time) {
	if m.ProbeOutstanding && m.ProbeSeq == seq {
		m.ProbeTries++ // Karn: a re-probe makes the sample ambiguous
	} else {
		m.ProbeOutstanding = true
		m.ProbeSeq = seq
		m.ProbeTries = 1
	}
	m.LastProbed = now
}

// needsKeepalive reports whether the Keepalive Controller should run.
// Per the paper it covers application idle time, the period after an
// urgent rate request, and ticks when the window cannot be advanced for
// lack of receiver information. Mere rate pacing (tokens accruing toward
// the next data packet) is not idleness and must not trigger keepalives.
func (s *Sender) needsKeepalive() bool {
	if s.st.PacketsSent == 0 || s.Done() {
		return false
	}
	// No new data to send means the application is idle (or everything is
	// in flight awaiting release).
	_, stopped := s.rc.StoppedUntil()
	_, unsent := s.wnd.FirstUnsent()
	return s.stalled || stopped || unsent == nil
}

// runKeepalive sends KEEPALIVE packets carrying the last sequence number
// transmitted, exponentially backed off to keepaliveMax.
func (s *Sender) runKeepalive(now sim.Time) {
	if s.kaTimer.Armed() && !s.kaTimer.Due(now) {
		return
	}
	s.kaTimer.Fire(now)
	last := s.wnd.Next() - 1 // last sequence number assigned
	if seq, e := s.wnd.FirstUnsent(); e != nil {
		// Last actually transmitted: one before the first unsent.
		last = seq - 1
	}
	s.st.KeepalivesSent++
	trace.Emit(s.cfg.Trace, now, trace.KeepaliveSent, uint32(last), 0)
	s.signal(packet.Header{Type: packet.TypeKeepalive, Seq: uint32(last)}, Dest{Multicast: true})
	if s.kaBackoff == 0 {
		s.kaBackoff = 2 * kernel.Jiffy
	} else {
		s.kaBackoff = min(2*s.kaBackoff, keepaliveMax)
	}
	s.kaTimer.Arm(now + s.kaBackoff)
}

// NextWake returns the earliest time a Tick has something to do, if it
// ever will without new input: a driver that ticks then, and otherwise
// only asks again after each Write, Close and HandlePacket, emits the
// packets one ticking every beat would. A time at or before the
// driver's clock means now.
func (s *Sender) NextWake() (sim.Time, bool) {
	if !s.primed || s.pendingFIN && s.wnd.Fits(packet.HeaderSize) {
		return s.lastTick, true
	}
	at, ok := sim.Time(0), false
	wake := func(t sim.Time, due bool) {
		if due && (!ok || t < at) {
			at, ok = t, true
		}
	}
	// next is the tick a per-beat driver would run next: where "on the
	// first tick that finds ..." lands.
	next := s.lastTick + s.rc.Beat()
	seq, unsent := s.wnd.FirstUnsent()
	if _, stopped := s.rc.StoppedUntil(); stopped {
		// Ticks during an urgent stop keep the bucket empty and answer
		// NAKs with what the retransmit guard leaves; the stop itself
		// ends on the first tick past it.
		wake(next, true)
	} else if unsent != nil || len(s.retrans) > 0 {
		wake(s.fundedAt(seq, unsent), true)
	}
	if s.closed || s.full() {
		_, t, due := s.rule(s.lastTick, sim.Time(s.cfg.MinBufRTTs)*s.pacingRTT())
		wake(t, due)
	}
	if s.needsKeepalive() {
		t, armed := s.kaTimer.Deadline()
		wake(t, armed)
		wake(next, !armed)
	}
	wake(s.flushDue())
	wake(s.headSweepDue())
	wake(s.tombSweepDue())
	return at, ok
}

// fundedAt is when the bucket funds the next burst of the data waiting
// for it: requested retransmissions, which any allowance serves and a
// deferral holds back, and unsent packets.
func (s *Sender) fundedAt(seq seqspace.Seq, unsent *window.SendEntry) sim.Time {
	wire := s.cfg.MSS + packet.HeaderSize
	backlog, first := 0, 0
	if unsent != nil {
		first = unsent.Pkt.WireSize()
		backlog = first + (int(seqspace.Diff(s.wnd.Next(), seq))-1)*wire
	}
	var held sim.Time
	for i, req := range s.retrans {
		backlog, first = backlog+int(req.gap.Count())*wire, 1
		if i == 0 || req.notBefore < held {
			held = req.notBefore
		}
	}
	at := s.rc.FundedAt(backlog, first)
	if unsent == nil {
		at = max(at, held)
	}
	return at
}
