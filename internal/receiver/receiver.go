// Package receiver implements the H-RMC receiver of Figure 9 as a
// sans-I/O state machine: the Main Packet Processor (reassembly, gap
// detection, rate requests), the NAK Manager with local NAK suppression,
// the Update Generator with its dynamic period, and the Application
// Interface.
//
// The machine is driven from outside: the owner feeds packets with
// HandleFrom, advances timers with Advance, reads the stream with Read,
// and drains queued feedback packets with the Outgoing views. The same
// code runs under the discrete-event simulator and the live UDP
// transport.
//
// This file is the flat receiver of the paper and nothing else. The
// extension roles a receiver can additionally hold each live in their
// own file — leaf.go (member of a repair head), head.go (repair head
// over internal/repair), recovery.go (the packet cache FEC and local
// recovery share, parity, peer repairs) — and the machine consults them
// only at the seams listed in roles.go. outbox.go is the one place a
// packet gets its destination and ports.
//
// Wire-field conventions (see the packet package): UPDATE, CONTROL and
// JOIN carry the receiver's next expected sequence number (rcv_nxt) in
// the Seq field. NAK carries the first missing sequence number in Seq,
// the count of consecutive missing packets in Length, and — because the
// rate-advertisement field is meaningless from receiver to sender — the
// receiver's rcv_nxt in RateAdv, so every feedback packet updates the
// sender's membership state as Section 3 of the paper requires.
package receiver

import (
	"errors"
	"io"
	"math"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/window"
)

// nakEntry tracks one pending missing packet for the NAK Manager.
type nakEntry struct {
	lastSent sim.Time
	tries    int
	// detected is when the gap first appeared, for the GapFilled
	// recovery-latency trace event.
	detected sim.Time
	// deferUntil suppresses the first NAK until the given time (FEC
	// extension: give the parity packet a chance to repair the gap).
	deferUntil sim.Time
	// direct routes this entry's NAKs straight to the sender even while
	// attached to a repair head — set when the head declined the range
	// (HEAD_DECLINE): re-asking the head cannot help.
	direct bool
	// scan is the last nakScan that found the packet still missing; an
	// entry left behind by the current scan has been filled.
	scan uint32
}

// Receiver is the H-RMC receiver state machine. Not safe for concurrent
// use; drivers serialize access.
type Receiver struct {
	cfg Config
	wnd *window.ReceiveWindow
	st  *stats.Receiver
	out outbox

	// NAK Manager state: one entry per missing sequence number. dead
	// marks sequence numbers the sender refused with NAK_ERR: released
	// end-to-end, unrecoverable. The NAK manager stops asking; the hole
	// stays visible as a stream that never advances past it.
	pending  map[seqspace.Seq]*nakEntry
	dead     map[seqspace.Seq]bool
	gaps     []window.Gap // nakScan scratch
	scan     uint32
	nakTimer kernel.Timer

	// Update Generator state.
	updateTimer   kernel.Timer
	updatePeriod  sim.Time
	probesInPer   int  // probes received during the current period
	feedbackInPer bool // other reverse traffic sent during the period

	// JOIN handshake. The JOIN is retried until JOIN_RESPONSE arrives:
	// membership is load-bearing in H-RMC (the sender holds releases for
	// expected receivers), so the handshake must survive loss.
	joined        bool // JOIN sent at least once
	joinTime      sim.Time
	joinTimer     kernel.Timer
	joinAmbiguous bool // JOIN was retransmitted: RTT sample is unusable
	joinAcked     bool
	joinSeq       uint32   // Seq of the last JOIN sent, which its response echoes
	retimedAt     sim.Time // when a re-timing JOIN went out; 0 = none in flight
	retimes       int      // re-timing JOINs sent
	rttEstimate   sim.Time
	lastAdvance   sim.Time
	lastControl   sim.Time // throttle for warning rate requests
	lastUrgent    sim.Time // throttle for urgent rate requests
	seenAnyData   bool
	finDelivered  bool
	leaveSent     bool
	leaveAcked    bool

	// Rule 2's live hold (holdWarning): whether a tripped rate request
	// is being held and since when, and whether this receiver has sent a
	// rate request since the flow began or since its last urgent one —
	// until then the sender may be in slow start and nothing is held.
	warnHeld    bool
	warnSince   sim.Time
	warnedSince bool

	advRate uint32 // last rate advertisement heard from the sender

	// rebased records the JoinInProgress anchor point (mid-stream join).
	rebased   bool
	rebasedTo seqspace.Seq

	// The roles (see roles.go). leaf and head are nil unless configured.
	leaf *leaf
	head *head
	rec  recovery
	// timers is every timer NextWake has to consider: the machine's own
	// three plus whatever the roles brought.
	timers []*kernel.Timer
}

// ErrNotData is returned by HandleFrom for packet types this receiver
// (in its configured roles) does not take.
var ErrNotData = errors.New("receiver: packet type is sender-bound")

// New creates a receiver. The update timer starts armed so that a
// receiver in a silent group still reports state.
func New(cfg Config) *Receiver {
	cfg.sanitize()
	wndPackets := uint32(cfg.RcvBuf / (cfg.MSS + packet.HeaderSize))
	r := &Receiver{
		cfg:          cfg,
		wnd:          window.NewReceiveWindow(wndPackets, cfg.InitialSeq),
		st:           &stats.Receiver{},
		out:          outbox{local: cfg.LocalPort, remote: cfg.RemotePort, subtree: cfg.Head != nil},
		pending:      make(map[seqspace.Seq]*nakEntry),
		dead:         make(map[seqspace.Seq]bool),
		updatePeriod: cfg.InitialUpdatePeriod,
		rec:          newRecovery(cfg),
	}
	r.setRTT(cfg.AssumedRTT)
	r.timers = []*kernel.Timer{&r.nakTimer, &r.updateTimer, &r.joinTimer, &r.rec.timer}
	if cfg.RecyclePackets {
		r.wnd.SetRecycle(true)
	}
	switch {
	case cfg.Head != nil:
		// A repair head replaces the per-receiver Update Generator with
		// the aggregate timer inside the head machine.
		r.head = newHead(cfg, int(wndPackets), r.st)
		r.timers = append(r.timers, r.head.Timer())
	case cfg.Mode == HRMC:
		r.updateTimer.Arm(cfg.InitialUpdatePeriod)
	}
	if cfg.RepairHead != 0 {
		r.leaf = &leaf{
			head:    cfg.RepairHead,
			budget:  cfg.HeadNakRetryBudget,
			silence: cfg.HeadSilenceTimeout,
			readopt: cfg.ReadoptHead,
		}
	}
	return r
}

// Stats returns the receiver's counters.
func (r *Receiver) Stats() *stats.Receiver { return r.st }

// NextExpected returns rcv_nxt.
func (r *Receiver) NextExpected() seqspace.Seq { return r.wnd.Next() }

// Done reports whether the stream has been fully delivered to the
// application and the LEAVE handshake has completed.
func (r *Receiver) Done() bool { return r.finDelivered && r.leaveAcked }

// FinDelivered reports whether the application has consumed the whole
// stream.
func (r *Receiver) FinDelivered() bool { return r.finDelivered }

// HandlePacket is HandleFrom for callers that know neither the source
// address nor care whether the packet was retained.
func (r *Receiver) HandlePacket(now sim.Time, p *packet.Packet) error {
	_, err := r.HandleFrom(now, 0, p)
	return err
}

// HandleFrom processes one packet (hrmc_master_rcv on the receive path).
// from is the source's unicast address, which a repair head needs to
// attribute downstream feedback and a leaf to recognise its head; it may
// be zero when unknown. retained reports whether the machine stored p in
// the receive window, to be released when the application consumes it:
// when false the caller still owns a pool-owned p and should release it.
func (r *Receiver) HandleFrom(now sim.Time, from packet.NodeID, p *packet.Packet) (retained bool, err error) {
	if r.fromHead(now, from, p) {
		return false, nil
	}
	r.learnRemote(from, p)
	switch p.Type {
	case packet.TypeData:
		retained = r.onData(now, p)
	case packet.TypeKeepalive:
		r.onKeepalive(now, p)
	case packet.TypeProbe:
		r.onProbe(now, p)
	case packet.TypeJoinResponse:
		r.onJoinResponse(now, p)
	case packet.TypeLeaveResponse:
		// Only a LEAVE this receiver actually has in flight can be acked;
		// responses to the auxiliary LEAVEs a re-adoption sends (retiring
		// a direct sender membership) must not complete the handshake.
		if r.leaveSent {
			r.leaveAcked = true
		}
	case packet.TypeNakErr:
		r.onNakErr(now, p)
	default:
		err = r.roleInput(now, from, p)
	}
	return retained, err
}

// anchor fixes the JoinInProgress rebase point: the receive window is
// moved to seq so a mid-stream joiner delivers from there instead of
// NAKing the whole history. It reports whether this call did the
// anchoring — the first thing heard from the sender.
func (r *Receiver) anchor(seq seqspace.Seq) bool {
	if r.rebased || !r.cfg.JoinInProgress {
		return false
	}
	if !r.wnd.Rebase(seq) {
		// Data already anchored the window; record where it stands.
		seq = r.wnd.Base()
	}
	r.rebasedTo, r.rebased = seq, true
	return true
}

// onData reports whether p was stored in the receive window (retained).
func (r *Receiver) onData(now sim.Time, p *packet.Packet) bool {
	r.advRate = p.RateAdv
	r.anchor(seqspace.Seq(p.Seq)) // mid-stream joiner: deliver from the first packet seen
	r.seenAnyData = true
	r.dataHeard(seqspace.Seq(p.Seq))
	res := r.wnd.Insert(p)
	// "send a JOIN message to the sender in response to the first data
	// packet that it receives" — carrying rcv_nxt after the packet has
	// been processed.
	r.join(now)
	switch res {
	case window.Duplicate:
		r.st.Duplicates++
		return false
	case window.OutOfWindow:
		r.st.OutOfWindow++
		return false
	}
	r.st.DataReceived++
	r.dataAccepted(p)
	r.nakScan(now, onChange)
	r.maybeRateRequest(now)
	return true
}

// scanMode says why the NAK Manager is looking at the window.
type scanMode uint8

const (
	// onChange: the window or the pending list changed. NAKs go out only
	// if a gap appeared that was not there before.
	onChange scanMode = iota
	// onTimer: a retry deadline passed, or a role made entries due again.
	// Everything due is NAKed.
	onTimer
	// onProbe is onChange, after which the first gap is re-asked at once,
	// bypassing suppression — the sender is blocked on this information.
	onProbe
)

// nakScan is the NAK Manager: it reconciles the pending list with the
// window's missing set (gaps gain entries, filled holes lose them), sends
// the NAKs the mode calls for — coalescing consecutive sequence numbers
// into one packet — and arms the timer for the earliest retry.
func (r *Receiver) nakScan(now sim.Time, mode scanMode) {
	r.gaps = r.wnd.Missing(r.gaps[:0])
	if len(r.gaps) == 0 && len(r.pending) == 0 {
		r.nakTimer.Disarm()
		return
	}
	r.scan++
	newGap := false
	for _, g := range r.gaps {
		for s := g.From; seqspace.Before(s, g.To); s++ {
			if r.dead[s] {
				// Authoritatively refused (NAK_ERR): never re-request.
				continue
			}
			e := r.pending[s]
			if e == nil {
				e = &nakEntry{detected: now}
				if r.cfg.FECGroupSize > 0 {
					// Give parity a chance before the first NAK. One
					// retry interval bounds the parity's trailing
					// distance comfortably: the sender emits it with the
					// group's last packet or, across a pipeline pause,
					// via the idle flush within a jiffy or two — any
					// longer wait just adds dead time to the fallback
					// path when the parity itself was lost. An arriving
					// parity that cannot repair the gap expires the
					// defer early (see onFec).
					e.deferUntil = now + nakRetryInterval
				}
				r.pending[s] = e
				if !newGap {
					trace.Emit(r.cfg.Trace, now, trace.GapDetected, uint32(s), 0)
				}
				newGap = true
			}
			e.scan = r.scan
		}
	}

	exhausted := false
	if newGap || mode == onTimer {
		for _, g := range r.gaps {
			var run window.Gap // the NAK being coalesced
			var runDirect, runRetry bool
			flush := func() {
				if run.To == run.From {
					return
				}
				trace.Emit(r.cfg.Trace, now, trace.NakSent, uint32(run.From), int64(run.Count()))
				r.sendNak(now, run, runRetry, runDirect)
				run.From, runRetry = run.To, false
			}
			for s := g.From; seqspace.Before(s, g.To); s++ {
				e := r.pending[s]
				if e == nil || now < r.dueAt(now, e) {
					flush()
					continue
				}
				if e.tries == 0 && e.deferUntil != 0 {
					// The FEC defer window expired with the gap still
					// open: parity did not repair it, so this NAK is the
					// selective fallback to retransmission.
					r.st.FecFallbackNaks++
				}
				retry := r.ask(now, e)
				_, spent, _ := r.headPolicy(e)
				exhausted = exhausted || spent
				if e.direct != runDirect {
					// Head-bound and direct entries cannot share one NAK.
					flush()
				}
				if run.To == run.From {
					run.From, runDirect = s, e.direct
				}
				run.To, runRetry = s+1, runRetry || retry
			}
			flush()
		}
	}
	if mode == onProbe && len(r.gaps) > 0 {
		g := r.gaps[0]
		retry := false
		for s := g.From; seqspace.Before(s, g.To); s++ {
			if e := r.pending[s]; e != nil {
				retry = r.ask(now, e) || retry
			}
		}
		r.sendNak(now, g, retry, false)
	}

	next := never
	for s, e := range r.pending {
		if e.scan != r.scan {
			// The gap is gone — filled by retransmission, parity
			// recovery, or a rebase past it. Aux carries the time it
			// stayed open, the recovery-latency a NAK round trip or a
			// parity arrival cost us.
			trace.Emit(r.cfg.Trace, now, trace.GapFilled, uint32(s), int64(now-e.detected))
			delete(r.pending, s)
			continue
		}
		next = min(next, r.dueAt(now, e))
	}
	armEarliest(&r.nakTimer, next, now)
	if exhausted {
		// The head absorbed a full retry budget without a sign of life.
		r.failover(now)
	}
}

// ask records one more request for e's packet and reports whether it is
// a re-ask.
func (r *Receiver) ask(now sim.Time, e *nakEntry) (retry bool) {
	retry = e.tries != 0
	if retry {
		r.st.NakRetries++
	} else {
		r.st.NaksSent++
	}
	e.lastSent = now
	e.tries++
	return retry
}

// sendNak requests retransmission of g. Tries marks a re-asked NAK: the
// sender must not take an RTT sample from it, since the elapsed time
// includes our backoff (or, for a head's escalation, a second hop).
// direct bypasses whoever else repairs for this receiver and asks the
// sender itself.
func (r *Receiver) sendNak(now sim.Time, g window.Gap, reask, direct bool) {
	h := packet.Header{
		Type:    packet.TypeNak,
		Seq:     uint32(g.From),
		Length:  g.Count(),
		RateAdv: uint32(r.reportedNext()),
	}
	if reask {
		h.Tries = 1
	}
	d := upstream
	if direct {
		d = toSender
	}
	r.send(now, &packet.Packet{Header: h}, d, 0)
	r.feedbackInPer = true
}

// dueAt is the earliest time e's packet may be asked for (again): at
// once for a fresh gap, else after the local NAK-suppression window —
// linear in the try count, unless a role asks on other terms — and never
// inside the FEC defer.
func (r *Receiver) dueAt(now sim.Time, e *nakEntry) sim.Time {
	at := now
	if e.tries != 0 {
		wait, _, ok := r.headPolicy(e)
		if !ok {
			wait = nakRetryInterval * sim.Time(e.tries+1)
		}
		at = e.lastSent + wait
	}
	if at < e.deferUntil {
		at = e.deferUntil
	}
	return at
}

// never is the earliest of no deadlines at all.
const never = sim.Time(math.MaxInt64)

// armEarliest arms t for at — the min over some deadlines, starting from
// never — but not before now, or disarms it when there were none.
func armEarliest(t *kernel.Timer, at, now sim.Time) {
	if at == never {
		t.Disarm()
		return
	}
	t.Arm(max(at, now))
}

// onNakErr processes an authoritative sender refusal: the requested
// range is below the send window and no longer retransmittable.
func (r *Receiver) onNakErr(now sim.Time, p *packet.Packet) {
	r.st.NakErrsHeard++
	g := window.GapOf(p)
	if r.relayRefusal(now, g) {
		return
	}
	// The data is gone for good and retrying cannot help.
	for s := g.From; seqspace.Before(s, g.To); s++ {
		if _, ok := r.pending[s]; !ok {
			continue
		}
		r.dead[s] = true
		r.st.UnrecoverableHoles++
		delete(r.pending, s)
	}
	r.nakScan(now, onChange)
}

// maybeRateRequest applies the three flow-control rules of Section 2 on
// each accepted data packet.
func (r *Receiver) maybeRateRequest(now sim.Time) {
	if pm := int64(r.wnd.Fill()) * 1000 / int64(r.wnd.Size()); pm > r.st.MaxFillPermille {
		r.st.MaxFillPermille = pm
	}
	switch r.wnd.Region() {
	case window.Warning:
		// Rule 2: request a lower rate if the data sendable at the
		// advertised rate over the next WARNBUF round trips exceeds the
		// empty portion of the window.
		horizon := sim.Time(warnBuf) * r.rttEstimate
		sendable := float64(r.advRate) * horizon.Seconds()
		emptyBytes := float64(r.wnd.Empty()) * float64(r.cfg.MSS)
		if sendable <= emptyBytes {
			return
		}
		if r.holdWarning(now) {
			return
		}
		// Rate requests are deliberately not suppressed (Section 5.2);
		// only the driver's timer granularity bounds them.
		if now-r.lastControl < r.cfg.Quantum && r.lastControl != 0 {
			return
		}
		r.lastControl = now
		r.warnHeld, r.warnedSince = false, true
		r.st.RateRequests++
		r.sendControl(now, trace.RegionWarning, 0)
		r.retime(now)
	case window.Critical:
		// Rule 3: urgent request, stops the sender for two round trips
		// regardless of the advertised rate. One per two round trips.
		if now-r.lastUrgent < 2*r.rttEstimate && r.lastUrgent != 0 {
			return
		}
		r.lastUrgent = now
		r.warnedSince = false // the sender restarts in slow start
		r.st.UrgentRequests++
		r.sendControl(now, trace.RegionCritical, packet.FlagURG)
	}
}

// holdWarning reports whether rule 2's tripped rate request waits.
// Under a live quantum the driver hands the machine a whole receive
// batch — one GSO burst is a quarter of a 256 KiB window — before the
// application could read any of it, so the look-ahead sees a reader
// locked out, not one that falls behind. The request then goes only if a
// packet at least a quantum after the first trip still trips the rule,
// and no Read has drained the window back to Safe in between (Read ends
// the hold). Nothing is held while the sender may be ramping
// exponentially — before this receiver's first rate request of the flow,
// and from each urgent one, after which the sender restarts in slow
// start, until the next rate request: a warning there is the only brake
// short of an urgent stop. Under the paper's jiffy clock the rule stays
// per packet.
func (r *Receiver) holdWarning(now sim.Time) bool {
	if r.cfg.Quantum >= kernel.Jiffy || !r.warnedSince {
		return false
	}
	if !r.warnHeld {
		r.warnHeld, r.warnSince = true, now
		return true
	}
	return now-r.warnSince < r.cfg.Quantum
}

// sendControl asks the sender for half the advertised rate. Rate control
// stays end-to-end whatever roles are held.
func (r *Receiver) sendControl(now sim.Time, region trace.Kind, flags uint8) {
	trace.Emit(r.cfg.Trace, now, region, uint32(r.wnd.Next()), int64(r.wnd.Fill()))
	r.send(now, &packet.Packet{Header: packet.Header{
		Type:    packet.TypeControl,
		Seq:     uint32(r.reportedNext()),
		RateAdv: r.advRate / 2,
		Flags:   flags,
	}}, upstream, 0)
	r.feedbackInPer = true
}

func (r *Receiver) onKeepalive(now sim.Time, p *packet.Packet) {
	r.st.KeepalivesHeard++
	r.advRate = p.RateAdv
	if r.anchor(seqspace.Seq(p.Seq) + 1) {
		r.join(now)
		return
	}
	// The keepalive carries the last sequence number transmitted; if we
	// have not received through it, the tail of a burst was lost.
	r.wnd.ExtendHighest(seqspace.Seq(p.Seq))
	r.nakScan(now, onChange)
}

func (r *Receiver) onProbe(now sim.Time, p *packet.Packet) {
	if r.cfg.Mode == RMC {
		return // the RMC baseline predates probes
	}
	r.st.ProbesReceived++
	r.probesInPer++
	probeSeq := seqspace.Seq(p.Seq)
	if r.anchor(probeSeq + 1) {
		// The probed data predates us: answer so the sender's release
		// check stops waiting on a stale membership entry.
		r.join(now)
		r.report(now, true)
		return
	}
	if seqspace.After(r.reportedNext(), probeSeq) {
		trace.Emit(r.cfg.Trace, now, trace.ProbeAnswered, p.Seq, 1)
	}
	// All data up to and including the probed sequence number received
	// earns an immediate UPDATE; otherwise the probed data is missing:
	// make the gap visible and NAK immediately.
	have := seqspace.After(r.wnd.Next(), probeSeq)
	if !have {
		r.wnd.ExtendHighest(probeSeq)
		r.nakScan(now, onProbe)
	}
	r.report(now, have)
}

// join starts the JOIN handshake on the first thing heard from the
// sender.
func (r *Receiver) join(now sim.Time) {
	if r.joined {
		return
	}
	r.joined = true
	r.joinTime = now
	r.sendJoin(now)
}

// rejoin repeats the JOIN — a retry, or a handshake re-homed to another
// party. Karn's rule: either way the exchange no longer times one round
// trip, so its RTT sample is discarded.
func (r *Receiver) rejoin(now sim.Time) {
	r.joinAcked = false
	r.joinAmbiguous = true
	r.sendJoin(now)
}

// sendJoin emits a JOIN and arms the retry timer.
func (r *Receiver) sendJoin(now sim.Time) {
	r.joinSeq = uint32(r.reportedNext())
	r.sendState(now, packet.TypeJoin, upstream)
	r.joinTimer.Arm(now + joinRetryInterval)
}

// maxRetimes bounds the re-timing JOINs of one flow, so a path whose
// round trip really lies between the floor and a jiffy pays a handful of
// packets for finding that out, not two per rate request for ever.
const maxRetimes = 4

// retime repeats the JOIN exchange to take the round-trip sample again,
// when rule 2 has just asked for half the rate on the strength of it. The
// one JOIN sample is taken on the coldest path of the flow's life, and an
// estimate under two jiffies — what the paper's kernel could not have
// told from its floor — is of the size of a driver's scheduling delays:
// one late wake there and the look-ahead holds more than the whole window
// for good. From two jiffies up the network dominates and the sample
// stands, as in the paper; under a jiffy clock the floor is there and
// this never runs. The sender answers a member's JOIN like a stranger's
// and echoes its Seq, so a JOIN carrying a Seq no earlier one carried is
// matched without ambiguity (Karn). It is not retried, and only a flat
// receiver does it: a leaf's JOIN goes to its head, and the Seq a head
// reports can step back.
func (r *Receiver) retime(now sim.Time) {
	if r.rttEstimate <= 2*r.cfg.Quantum || r.rttEstimate >= 2*kernel.Jiffy ||
		r.retimes >= maxRetimes || !r.joinAcked || r.leaf != nil || r.head != nil {
		return
	}
	if r.retimedAt != 0 && now-r.retimedAt < kernel.Jiffy {
		return // one in flight
	}
	if seq := uint32(r.reportedNext()); seq != r.joinSeq {
		r.joinSeq, r.retimedAt = seq, now
		r.retimes++
		r.sendState(now, packet.TypeJoin, upstream)
	}
}

// sendState emits a JOIN, UPDATE or LEAVE: the membership packets, which
// carry nothing but the reported next-expected sequence number.
func (r *Receiver) sendState(now sim.Time, ty packet.Type, d dest) {
	r.send(now, &packet.Packet{Header: packet.Header{Type: ty, Seq: uint32(r.reportedNext())}}, d, 0)
}

// joinRetryInterval paces JOIN retransmissions while no JOIN_RESPONSE
// has arrived.
const joinRetryInterval = 50 * kernel.Jiffy

func (r *Receiver) onJoinResponse(now sim.Time, p *packet.Packet) {
	if r.joinAcked && r.retimedAt != 0 && p.Seq == r.joinSeq {
		// The answer to a re-timing JOIN: it may lower the estimate,
		// never raise it.
		if d := now - r.retimedAt; d < r.rttEstimate {
			r.setRTT(d)
		}
		r.retimedAt = 0
	}
	if r.joinAcked || !r.joined {
		return
	}
	r.joinAcked = true
	r.joinTimer.Disarm()
	// Karn's rule: only an unambiguous (never-retransmitted) JOIN
	// exchange yields an RTT sample.
	if d := now - r.joinTime; d > 0 && !r.joinAmbiguous {
		r.setRTT(d)
	}
}

// setRTT adopts a round-trip sample and shows it on the RTTMicros gauge.
// The driver's clock cannot resolve round trips below its quantum, so
// the estimate floors at two.
func (r *Receiver) setRTT(d sim.Time) {
	r.rttEstimate = max(d, 2*r.cfg.Quantum)
	r.st.RTTMicros = int64(r.rttEstimate / sim.Microsecond)
}

func (r *Receiver) sendUpdate(now sim.Time) {
	r.st.UpdatesSent++
	trace.Emit(r.cfg.Trace, now, trace.UpdateSent, uint32(r.wnd.Next()), 0)
	r.sendState(now, packet.TypeUpdate, upstream)
}

// Advance fires any due timers: the NAK Manager and the Update
// Generator. Drivers call it every jiffy or at NextWake; the packets
// that come out are the same.
func (r *Receiver) Advance(now sim.Time) {
	r.lastAdvance = now
	r.watchHead(now)
	if r.nakTimer.Fire(now) {
		r.nakScan(now, onTimer)
	}
	if r.updateTimer.Fire(now) {
		r.onUpdateTimer(now)
	}
	if r.joinTimer.Fire(now) && !r.joinAcked && !r.finDelivered {
		r.rejoin(now)
	}
	r.advanceRoles(now)
}

// onUpdateTimer is the Update Generator of Figure 9: send a periodic
// UPDATE (unless other reverse traffic already informed the sender this
// period) and adjust the period by one jiffy based on whether probes
// arrived — down when the sender had to probe, up when it did not.
func (r *Receiver) onUpdateTimer(now sim.Time) {
	if r.seenAnyData && !r.finDelivered {
		if r.feedbackInPer {
			r.st.UpdatesSkipped++
		} else {
			r.sendUpdate(now)
		}
	}
	if r.probesInPer > 0 {
		r.updatePeriod = max(r.updatePeriod-kernel.Jiffy, minUpdatePeriod)
	} else {
		r.updatePeriod = min(r.updatePeriod+kernel.Jiffy, maxUpdatePeriod)
	}
	r.probesInPer = 0
	r.feedbackInPer = false
	if !r.finDelivered {
		r.updateTimer.Arm(now + r.updatePeriod)
	}
}

// NextWake returns the earliest time Advance has something to do: the
// soonest timer — or, while a leaf's silence clock against its repair
// head runs, the next jiffy: any packet can answer the request the clock
// is running for, and only Advance looks (watchHead).
func (r *Receiver) NextWake() (sim.Time, bool) {
	at, ok := kernel.Earliest(r.timers...)
	if l := r.leaf; l.attached() && l.waitSince != 0 && l.silence > 0 {
		if t := r.lastAdvance + kernel.Jiffy; !ok || t < at {
			return t, true
		}
	}
	return at, ok
}

// Read delivers in-order stream bytes to the application. At end of
// stream it returns io.EOF (after the final bytes) and queues the LEAVE
// message.
func (r *Receiver) Read(now sim.Time, buf []byte) (int, error) {
	if r.finDelivered {
		return 0, io.EOF
	}
	n, fin := r.wnd.Read(buf)
	r.st.BytesDelivered += int64(n)
	if r.wnd.Region() == window.Safe {
		r.warnHeld = false
	}
	if fin {
		r.finDelivered = true
		trace.Emit(r.cfg.Trace, now, trace.StreamComplete, uint32(r.wnd.Next()), r.st.BytesDelivered)
		r.updateTimer.Disarm()
		if !r.endOfStream(now) && !r.leaveSent {
			r.leaveSent = true
			// A final UPDATE tells the sender everything was received,
			// then LEAVE closes the membership. The RMC baseline has no
			// UPDATE packet type.
			if r.cfg.Mode == HRMC {
				r.sendUpdate(now)
			}
			r.sendState(now, packet.TypeLeave, upstream)
		}
		if n == 0 {
			return 0, io.EOF
		}
	}
	return n, nil
}

// Leave ends the membership before the end of the stream: the owner is
// closing the flow, and the sender must stop holding its window for a
// receiver that will read no more. It queues the LEAVE that Read queues
// at end of stream, once, and only after the JOIN went out — a sender
// that never heard of the receiver holds nothing for it. The machine is
// not driven afterwards.
func (r *Receiver) Leave(now sim.Time) {
	if r.leaveSent || !r.joined {
		return
	}
	r.leaveSent = true
	r.sendState(now, packet.TypeLeave, upstream)
}

// Buffered returns the number of in-order packets awaiting Read.
func (r *Receiver) Buffered() int { return r.wnd.Buffered() }

// ReleaseBuffers drops every buffered packet, returning retained pool
// packets to the pool. It is for teardown of an aborted flow only; the
// machine must not be used afterwards.
func (r *Receiver) ReleaseBuffers() {
	r.wnd.ReleaseAll()
	r.releaseRoles()
}

// RebasedAt returns the JoinInProgress anchor point and whether the
// receiver anchored mid-stream. Drivers use it to translate delivered
// bytes back to stream offsets.
func (r *Receiver) RebasedAt() (seqspace.Seq, bool) { return r.rebasedTo, r.rebased }
