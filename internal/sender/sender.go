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

// Mode selects the protocol variant.
type Mode int

const (
	// HRMC guarantees reliability: the window advances only when every
	// member is known to hold the data, probing members whose state is
	// unknown.
	HRMC Mode = iota
	// RMC is the original protocol: anonymous membership, release purely
	// on the MINBUF timer; a NAK for released data earns a NAK_ERR.
	RMC
)

func (m Mode) String() string {
	if m == RMC {
		return "RMC"
	}
	return "H-RMC"
}

// Silent-head failover defaults (see Config.HeadSilenceTimeout and
// Config.FailoverGrace). The eviction timeout is several AGG_UPDATE
// periods plus margin; the grace covers a leaf-side failover detection
// plus a JOIN round trip.
const (
	DefaultHeadSilenceTimeout = 10 * sim.Second
	DefaultFailoverGrace      = 5 * sim.Second
)

// Config parametrizes a sender.
type Config struct {
	LocalPort, RemotePort uint16
	// SndBuf is the per-socket kernel send buffer in bytes; it bounds
	// the send window.
	SndBuf int
	// MSS is the data payload size per packet.
	MSS int
	// Mode selects H-RMC or the RMC baseline.
	Mode Mode
	// InitialSeq is the stream's first sequence number.
	InitialSeq seqspace.Seq
	// MinBufRTTs is the minimum time a transmitted packet stays buffered
	// before it becomes a release candidate, in round trips; the paper
	// sets MINBUF = 10, the default. For an unknown population (and under
	// RMC) the hold is the release rule's grace for late joiners. With
	// ExpectedReceivers set it never delays a release, since a packet
	// every member holds is freed early; it only delays the PROBE for a
	// packet some member has not confirmed. A live session therefore sets
	// 1 there when this is left zero.
	MinBufRTTs int
	// Rate configures the rate-based flow-control component.
	Rate rate.Config
	// Quantum is the finest interval the driver can wake the machine at;
	// it reaches the machine as Rate.Quantum (which see) unless that is
	// set. Zero means kernel.Jiffy.
	Quantum sim.Time
	// InitialRTT seeds the worst-receiver round-trip estimator.
	InitialRTT sim.Time
	// KeepaliveMax caps the exponential keepalive backoff; the paper
	// uses 2 seconds.
	KeepaliveMax sim.Time
	// ExpectedReceivers, when positive, holds buffer release (not
	// transmission) until that many receivers have joined, protecting
	// the start of stream in deployments where the population is known.
	ExpectedReceivers int

	// EarlyProbeRTTs is the early-probe extension (Section 7, item 1):
	// when positive, probe lagging receivers this many round trips
	// before the release deadline instead of at it, hiding the probe
	// round trip behind the tail of the MINBUF wait.
	EarlyProbeRTTs float64
	// MulticastProbeThreshold is the multicast-probe extension (Section
	// 7, item 2): when positive and at least this many receivers need
	// probing, send one multicast PROBE instead of unicasts.
	MulticastProbeThreshold int
	// LocalRecovery enables the local-recovery extension (Section 7,
	// item 3): NAK-triggered retransmissions are deferred half a round
	// trip so a peer's multicast repair can serve the group first, and
	// repairs the sender observes cancel the matching retransmissions.
	LocalRecovery bool
	// FECGroupSize enables the forward-error-correction extension
	// (Section 7, item 4): one best-effort XOR parity packet is
	// multicast per this many first-transmission data packets, letting
	// receivers rebuild single losses without a NAK round trip. Zero
	// disables FEC.
	FECGroupSize int
	// TombstoneTTL bounds how long the final state of a departed member
	// is remembered for the stale-NAK guard. Under sustained join/leave
	// churn the departed map would otherwise grow without bound; a
	// straggler NAK older than this is vanishingly unlikely and merely
	// earns a harmless NAK_ERR. Zero means 30 seconds.
	TombstoneTTL sim.Time
	// HeadSilenceTimeout evicts a repair head that has gone completely
	// silent — no AGG_UPDATE, escalated NAK, or any other feedback — for
	// this long. A healthy head speaks at least every AggregatePeriod, so
	// sustained silence means the head process died without a LEAVE and
	// its entry would otherwise stall the release path forever. Zero
	// means 10 seconds; negative disables the sweep.
	HeadSilenceTimeout sim.Time
	// FailoverGrace holds buffer release at an evicted head's last
	// reported subtree minimum for this long after the eviction, giving
	// the head's orphaned leaves time to detect the death themselves,
	// re-JOIN directly, and report their true positions — without the
	// fence the release path would treat the shrunken membership table as
	// complete and free data the orphans still need. Zero means 5
	// seconds; negative disables the fence.
	FailoverGrace sim.Time

	// Stats receives counters; nil allocates a private set.
	Stats *stats.Sender
	// Trace receives protocol events; nil disables tracing.
	Trace trace.Sink
}

func (c *Config) sanitize() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.SndBuf <= 0 {
		c.SndBuf = 64 << 10
	}
	if c.MinBufRTTs <= 0 {
		c.MinBufRTTs = 10
	}
	if c.Rate.MSS == 0 {
		c.Rate.MSS = c.MSS + packet.HeaderSize // pace in wire bytes
	}
	if c.Rate.MinRate == 0 && c.Rate.MaxRate == 0 {
		def := rate.DefaultConfig()
		def.MSS = c.MSS
		c.Rate = def
	}
	if c.Rate.Quantum == 0 {
		c.Rate.Quantum = c.Quantum
	}
	if c.KeepaliveMax <= 0 {
		c.KeepaliveMax = 2 * sim.Second
	}
	if c.TombstoneTTL <= 0 {
		c.TombstoneTTL = 30 * sim.Second
	}
	if c.HeadSilenceTimeout == 0 {
		c.HeadSilenceTimeout = DefaultHeadSilenceTimeout
	} else if c.HeadSilenceTimeout < 0 {
		c.HeadSilenceTimeout = 0
	}
	if c.FailoverGrace == 0 {
		c.FailoverGrace = DefaultFailoverGrace
	} else if c.FailoverGrace < 0 {
		c.FailoverGrace = 0
	}
	if c.Stats == nil {
		c.Stats = &stats.Sender{}
	}
}

// Dest is where an outgoing packet goes.
type Dest struct {
	// Multicast packets go to the whole group; otherwise Node is the
	// receiver's unicast address.
	Multicast bool
	Node      packet.NodeID
}

// Out is one outgoing packet with its destination.
type Out struct {
	Pkt  *packet.Packet
	Dest Dest
	// Windowed marks a packet still owned by the send window (a DATA
	// transmission or retransmission emitted without cloning). The
	// driver must not hold Pkt or its payload past the point where it
	// hands control back to the machine, unless it covers the overlap
	// with packet.Retain: the window releases (packet.Put) the buffer
	// as soon as feedback allows.
	Windowed bool
}

// retransReq is one queued retransmission range; notBefore defers it
// under the local-recovery extension.
type retransReq struct {
	gap       window.Gap
	notBefore sim.Time
}

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
	lastSendActivity sim.Time
	kaTimer          kernel.Timer
	kaBackoff        sim.Time

	closed     bool // Close called; a FIN packet is (or will be) queued
	finQueued  bool
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
	lacking   []*membership.Member // Lacking scratch
	maxJoined int
	// cutEpoch is snd_nxt at the last NAK-driven rate cut: NAKs for
	// data sent before the cut describe the same loss event and do not
	// cut again (the rate-based analogue of TCP's one-cut-per-window).
	cutEpoch    seqspace.Seq
	cutEpochSet bool
	// departed records the final cumulative state of members that left,
	// so the stale-NAK guard in onNak still recognises a straggler
	// (reordered or duplicated) NAK from a receiver that has since sent
	// LEAVE — without it, release after the last LEAVE empties the
	// window and the straggler would earn a spurious NAK_ERR. Entries
	// expire after TombstoneTTL (swept from the tick) so churn cannot
	// grow the map without bound.
	departed      map[packet.NodeID]tombstone
	lastTombSweep sim.Time

	// Silent-head failover state: lastHeadSweep amortizes the eviction
	// sweep; headFence/headFenceTill hold release at the lowest evicted
	// head's last reported subtree minimum until the grace expires (see
	// Config.FailoverGrace).
	lastHeadSweep sim.Time
	headFence     seqspace.Seq
	headFenceTill sim.Time

	// fenc is the FEC parity encoder (extension), nil when disabled.
	// fecLastAdd is the last time a first transmission fed it; when the
	// pipeline then sits idle with a group half-open, Tick flushes the
	// partial group's parity so the sent prefix doesn't remain
	// unprotected across a stall (see Encoder.Flush).
	fenc       *fec.Encoder
	fecLastAdd sim.Time
}

// New creates a sender.
func New(cfg Config) *Sender {
	cfg.sanitize()
	s := &Sender{
		cfg:    cfg,
		wnd:    window.NewSendWindow(cfg.SndBuf, cfg.InitialSeq),
		rc:     rate.New(cfg.Rate),
		est:    rtt.New(cfg.InitialRTT),
		st:     cfg.Stats,
		judged: cfg.InitialSeq,
	}
	if cfg.FECGroupSize > 0 {
		s.fenc = fec.NewEncoder(cfg.FECGroupSize)
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

// WindowBytes returns the bytes currently buffered in the send window.
func (s *Sender) WindowBytes() int { return s.wnd.Bytes() }

// Outgoing drains the queued outgoing packets in order.
func (s *Sender) Outgoing() []Out {
	out := s.out
	s.out = nil
	return out
}

// HasOutgoing reports whether packets are queued.
func (s *Sender) HasOutgoing() bool { return len(s.out) > 0 }

// Recycle gives a slice obtained from Outgoing back to the sender so
// emit reuses its capacity instead of regrowing from nil every drain
// cycle. The caller must be completely done with the slice; drivers
// that keep the slice (or don't care) simply never call it.
func (s *Sender) Recycle(out []Out) {
	if s.out != nil || cap(out) == 0 {
		return
	}
	for i := range out {
		out[i] = Out{}
	}
	s.out = out[:0]
}

func (s *Sender) emit(p *packet.Packet, d Dest) {
	p.SrcPort = s.cfg.LocalPort
	p.DstPort = s.cfg.RemotePort
	p.RateAdv = s.rc.Advertised()
	s.out = append(s.out, Out{Pkt: p, Dest: d})
}

// emitWindowed queues a window-owned packet without cloning it (see
// Out.Windowed).
func (s *Sender) emitWindowed(p *packet.Packet, d Dest) {
	p.SrcPort = s.cfg.LocalPort
	p.DstPort = s.cfg.RemotePort
	p.RateAdv = s.rc.Advertised()
	s.out = append(s.out, Out{Pkt: p, Dest: d, Windowed: true})
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
		chunk := len(b) - n
		if chunk > s.cfg.MSS {
			chunk = s.cfg.MSS
		}
		// Chunk straight into a pooled packet: the payload backing array
		// is allocated (or recycled) once and lives until the window
		// releases the packet — one allocation per buffer lifetime, the
		// hold-until-release discipline of the paper's sk_buff handling.
		p := packet.GetBuf(chunk)
		p.Type = packet.TypeData
		p.Length = uint32(chunk)
		p.Payload = append(p.Payload[:0], b[n:n+chunk]...)
		if _, err := s.wnd.Insert(p); err != nil {
			packet.Put(p)
			break
		}
		n += chunk
	}
	return n
}

// Close marks the end of the stream: a zero-length FIN DATA packet is
// appended after all written data. Reliable delivery of the FIN is
// governed by the same window machinery as data.
func (s *Sender) Close(now sim.Time) {
	if s.closed {
		return
	}
	s.closed = true
	s.pendingFIN = true
	s.tryQueueFIN()
}

func (s *Sender) tryQueueFIN() {
	if !s.pendingFIN {
		return
	}
	p := packet.Get()
	p.Type = packet.TypeData
	p.Flags = packet.FlagFIN
	if _, err := s.wnd.Insert(p); err == nil {
		s.pendingFIN = false
		s.finQueued = true
	} else {
		packet.Put(p)
	}
}

// Done reports whether the stream is fully transmitted and released: the
// FIN was queued and every packet has left the send window. Under H-RMC
// this implies every member held all data at release time.
func (s *Sender) Done() bool {
	return s.closed && s.finQueued && !s.pendingFIN && s.wnd.Len() == 0
}

// HandlePacket processes receiver feedback (hrmc_master_rcv on the send
// path). from is the receiver's unicast address.
func (s *Sender) HandlePacket(now sim.Time, from packet.NodeID, p *packet.Packet) {
	switch p.Type {
	case packet.TypeData:
		// A peer's multicast repair (local-recovery extension): the data
		// is being served by the group, so drop any matching deferred
		// retransmission.
		if s.cfg.LocalRecovery {
			s.onRepairHeard(now, p)
		}
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

// admit returns from's membership entry, creating it — and counting it
// toward the population ExpectedReceivers waits for — if the address is
// not a member yet.
func (s *Sender) admit(now sim.Time, from packet.NodeID, p *packet.Packet) (m *membership.Member, added bool) {
	m, added = s.members.Add(from, now)
	if added {
		trace.Emit(s.cfg.Trace, now, trace.MemberJoined, p.Seq, int64(s.members.Len()))
		s.maxJoined = max(s.maxJoined, s.members.Len())
	}
	return m, added
}

// implicitJoin admits the source of an UPDATE or LEAVE that is neither a
// member nor tombstoned: its JOIN was lost. A receiver stops retrying the
// JOIN once its stream has ended, so without this a short stream can end
// with the sender still waiting for a receiver that has already finished
// and said so. NAK and CONTROL do not qualify: a leaf attached to a
// repair head sends those to the sender too (declined ranges, rate
// requests), and it is the head's member, not the sender's.
func (s *Sender) implicitJoin(now sim.Time, from packet.NodeID, p *packet.Packet) {
	if _, gone := s.departed[from]; !gone {
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
	// A direct JOIN from a former leaf of an evicted head re-homes one
	// orphan. The gauge is an approximation — the sender cannot tell a
	// re-homing orphan from a genuinely new receiver — but it decays to
	// zero as the orphaned population drains, which is the signal the
	// operator needs.
	if added && s.st.OrphanedLeaves > 0 {
		s.st.OrphanedLeaves--
	}
	// The JOIN answers the first data packet the receiver saw; if that
	// packet (seq one below the receiver's next-expected) is still
	// buffered and was sent exactly once, its send time gives an
	// unambiguous round-trip sample (Karn), used to estimate the round
	// trip to the most distant receiver.
	if added {
		if e := s.wnd.Entry(seqspace.Seq(p.Seq) - 1); e != nil && e.Tries == 1 {
			s.est.Sample(now - e.LastSent)
		}
	}
	s.emit(&packet.Packet{Header: packet.Header{
		Type: packet.TypeJoinResponse,
		Seq:  p.Seq,
	}}, Dest{Node: from})
}

func (s *Sender) onLeave(now sim.Time, from packet.NodeID, p *packet.Packet) {
	s.st.LeavesReceived++
	s.members.Update(from, seqspace.Seq(p.Seq), now)
	if m := s.members.Lookup(from); m != nil && m.KnownState {
		if s.departed == nil {
			s.departed = make(map[packet.NodeID]tombstone)
		}
		s.departed[from] = tombstone{next: m.NextExpected, at: now, head: m.Head}
	}
	s.members.Remove(from)
	trace.Emit(s.cfg.Trace, now, trace.MemberLeft, p.Seq, int64(s.members.Len()))
	s.emit(&packet.Packet{Header: packet.Header{
		Type: packet.TypeLeaveResponse,
		Seq:  p.Seq,
	}}, Dest{Node: from})
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
			// Entirely released. If the requester's own (monotonic)
			// recorded state already covers the range, this NAK is a
			// reordered stale report of a loss the receiver has since
			// recovered from — there is nothing to repair and nothing to
			// mourn, so it is dropped. Only an uncovered request for
			// released data earns a NAK_ERR. Repair heads (live or
			// tombstoned) are exempt from the silent drop: their recorded
			// state is a non-monotonic subtree minimum, so "covered" proves
			// nothing about the leaf that escalated the NAK, and an
			// escalation for released data must always draw the explicit
			// refusal — the head turns it into a HEAD_DECLINE and the leaf
			// stops waiting. The NAK_ERR echoes the requested length so the
			// refusal covers the whole range, not just its first packet.
			if m := s.members.Lookup(from); m != nil {
				if !m.Head && m.KnownState && seqspace.AtOrAfter(m.NextExpected, gap.To) {
					return
				}
			} else if tb, ok := s.departed[from]; ok && !tb.head && seqspace.AtOrAfter(tb.next, gap.To) {
				return
			}
			// The request cannot be satisfied.
			s.st.NakErrsSent++
			trace.Emit(s.cfg.Trace, now, trace.NakErrSent, p.Seq, 0)
			s.emit(&packet.Packet{Header: packet.Header{
				Type:   packet.TypeNakErr,
				Seq:    p.Seq,
				Length: p.Length,
			}}, Dest{Node: from})
			return
		}
		gap.From = s.wnd.Base()
	}
	if seqspace.After(gap.To, s.wnd.Next()) {
		gap.To = s.wnd.Next()
	}
	if gap.Count() > 0 {
		req := retransReq{gap: gap}
		if s.cfg.LocalRecovery {
			// Give peer repairs half a round trip's head start.
			req.notBefore = now + s.pacingRTT()/2
		}
		s.retrans = append(s.retrans, req)
	}
	// A NAK signals loss: cut the rate once per loss epoch — NAKs for
	// data transmitted before the previous cut report the same event.
	if !s.cutEpochSet || seqspace.AtOrAfter(seqspace.Seq(p.Seq), s.cutEpoch) {
		s.cutEpoch = s.wnd.Next()
		s.cutEpochSet = true
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

// onAggUpdate processes one aggregated UPDATE from a repair head
// (hierarchical recovery extension): Seq is the minimum next-expected
// sequence number over the head's whole subtree, Length its downstream
// member count. The head is registered as a member if its JOIN was
// lost, and its entry is updated non-monotonically — a new leaf joining
// behind the subtree front legitimately regresses the minimum.
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
		s.st.OrphanedLeaves -= int64(p.Length)
		if s.st.OrphanedLeaves < 0 {
			s.st.OrphanedLeaves = 0
		}
	}
}

// onRepairHeard cancels deferred retransmissions covered by a repair a
// peer multicast (the sender, like any group member, hears repairs).
func (s *Sender) onRepairHeard(now sim.Time, p *packet.Packet) {
	s.st.RepairsHeard++
	seq := seqspace.Seq(p.Seq)
	kept := s.retrans[:0]
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
	allowance := s.rc.Allowance(now)
	sentAny := false

	// Retransmitter: requested data has priority over new data.
	allowance, resent := s.retransmit(now, allowance)
	sentAny = sentAny || resent

	// New data within the rate window. Tokens accumulate across ticks
	// (up to the burst cap, which always admits one full packet), so
	// rates below one packet per jiffy still pace correctly.
	for {
		seq, e := s.wnd.FirstUnsent()
		if e == nil {
			break
		}
		size := e.Pkt.WireSize()
		if size > allowance {
			break
		}
		s.transmit(now, seq, e, false)
		allowance -= size
		s.rc.Spend(size)
		sentAny = true
	}

	// FEC idle flush: a parity group left half-open across a pipeline
	// pause (window stall, rate gate, stream tail) would leave its sent
	// prefix unprotected past the receivers' NAK-defer window; close it
	// early with a short-group parity instead. One beat of silence is
	// the signal — the next burst is due within a beat, so this only
	// fires when transmission genuinely paused.
	if s.fenc != nil && s.fenc.Pending() > 0 && now-s.fecLastAdd >= s.rc.Beat() {
		if parity := s.fenc.Flush(); parity != nil {
			s.st.FecParitySent++
			trace.Emit(s.cfg.Trace, now, trace.FecParitySent, parity.Seq, int64(parity.Length))
			s.emit(parity, Dest{Multicast: true})
		}
	}

	// Window release (buffer space reclamation).
	s.tryRelease(now)

	// Rate growth happens only while there is demand.
	if sentAny {
		s.rc.MaybeGrow(now, s.pacingRTT())
		s.lastSendActivity = now
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

// sweepSilentHeads evicts repair heads that have gone completely silent
// past the timeout (see Config.HeadSilenceTimeout). Like the tombstone
// sweep it is amortized: the table is walked at most every quarter
// timeout, so a dead head is detected within 1.25 timeouts at O(members)
// cost per sweep, not per tick. Each eviction tombstones the head (so
// straggler escalations still draw NAK_ERRs, never silence), arms the
// release fence at its last reported subtree minimum, and charges its
// reported downstream count to the orphaned-leaves gauge.
func (s *Sender) sweepSilentHeads(now sim.Time) {
	if s.cfg.HeadSilenceTimeout <= 0 || s.members.Heads() == 0 {
		return
	}
	if now-s.lastHeadSweep < s.cfg.HeadSilenceTimeout/4 {
		return
	}
	s.lastHeadSweep = now
	stale := s.members.StaleHeads(now, s.cfg.HeadSilenceTimeout, nil)
	for _, m := range stale {
		if m.KnownState {
			if s.departed == nil {
				s.departed = make(map[packet.NodeID]tombstone)
			}
			s.departed[m.Addr] = tombstone{next: m.NextExpected, at: now, head: true}
			if s.cfg.FailoverGrace > 0 {
				if s.headFenceTill == 0 || seqspace.Before(m.NextExpected, s.headFence) {
					s.headFence = m.NextExpected
				}
				if till := now + s.cfg.FailoverGrace; till > s.headFenceTill {
					s.headFenceTill = till
				}
			}
		}
		s.st.HeadsEvicted++
		s.st.OrphanedLeaves += int64(m.Members)
		trace.Emit(s.cfg.Trace, now, trace.HeadEvicted, uint32(m.NextExpected), int64(m.Members))
		s.members.Remove(m.Addr)
	}
}

// sweepTombstones evicts departed-member tombstones older than the TTL.
// The sweep itself is amortized: it walks the map at most once per TTL,
// so steady-state cost is O(expired) not O(departed) per tick.
func (s *Sender) sweepTombstones(now sim.Time) {
	if len(s.departed) == 0 || now-s.lastTombSweep < s.cfg.TombstoneTTL {
		return
	}
	s.lastTombSweep = now
	for addr, tb := range s.departed {
		if now-tb.at >= s.cfg.TombstoneTTL {
			delete(s.departed, addr)
		}
	}
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
			if e == nil || !e.Sent() {
				continue
			}
			if now-e.LastSent < guard {
				continue
			}
			if allowance <= 0 {
				// Out of rate budget: requeue the tail for the next tick.
				s.retrans = append(s.retrans, retransReq{gap: window.Gap{From: seq, To: g.To}})
				break
			}
			s.transmit(now, seq, e, true)
			allowance -= e.Pkt.WireSize()
			s.rc.Spend(e.Pkt.WireSize())
			sent = true
		}
	}
	return allowance, sent
}

// transmit multicasts one window entry. The window packet itself is
// emitted (no clone): the driver copies or encodes it before the next
// machine entry point runs, and the retransmit guard (half an RTT
// between transmissions of one sequence) keeps a single buffer from
// being emitted twice in one drain.
func (s *Sender) transmit(now sim.Time, seq seqspace.Seq, e *window.SendEntry, isRetrans bool) {
	e.Tries++
	if e.Tries == 1 {
		e.FirstSent = now
	}
	e.LastSent = now
	pkt := e.Pkt
	pkt.Seq = uint32(seq)
	pkt.Tries = uint8(min(e.Tries-1, 255))
	if isRetrans {
		s.st.Retransmissions++
		s.st.RetransBytes += int64(len(pkt.Payload))
		trace.Emit(s.cfg.Trace, now, trace.SendRetransmission, pkt.Seq, int64(len(pkt.Payload)))
	} else {
		s.st.PacketsSent++
		s.st.BytesSent += int64(len(pkt.Payload))
		trace.Emit(s.cfg.Trace, now, trace.SendData, pkt.Seq, int64(len(pkt.Payload)))
	}
	s.emitWindowed(pkt, Dest{Multicast: true})
	if !isRetrans && s.fenc != nil {
		// FEC extension: parity covers first transmissions only and is
		// itself best-effort (never retransmitted, not counted against
		// the rate allowance — a bounded 1/K overhead).
		if parity := s.fenc.Add(seq, e.Pkt.Flags, e.Pkt.Payload); parity != nil {
			s.st.FecParitySent++
			trace.Emit(s.cfg.Trace, now, trace.FecParitySent, parity.Seq, int64(parity.Length))
			s.emit(parity, Dest{Multicast: true})
		}
		s.fecLastAdd = now
		s.st.FecGroupRestarts = s.fenc.Restarts()
	}
}

// tryRelease runs the release rule and books ReleaseBlockedMicros: the
// time since the last attempt that found the window blocked on receivers
// (no room for another packet, nothing left to transmit, the front not
// freed). The window can only leave that state through a release, so
// booking here needs no deadline of its own.
func (s *Sender) tryRelease(now sim.Time) {
	if s.blocked {
		us := (now - s.blockedAt) / sim.Microsecond
		s.st.ReleaseBlockedMicros += int64(us)
		s.blockedAt += us * sim.Microsecond
	}
	s.release(now)
	_, unsent := s.wnd.FirstUnsent()
	blocked := s.wnd.Len() > 0 && unsent == nil && s.wnd.Free() < s.cfg.MSS+packet.HeaderSize
	if blocked && !s.blocked {
		s.blockedAt = now
	}
	s.blocked = blocked
}

// release advances the send window: a packet becomes a release
// candidate MINBUF round trips after its last transmission; under H-RMC
// it is released only when every member is known to hold it, otherwise
// the lacking members are probed and the window stalls.
func (s *Sender) release(now sim.Time) {
	was := s.stalled
	s.stalled = false
	// stall marks the window blocked; the counter scores episodes, not
	// how often a driver looks at one.
	stall := func() {
		s.stalled = true
		if !was {
			s.st.ReleaseStalls++
		}
	}
	// Like the kernel, buffer space is reclaimed lazily: only when the
	// window lacks room for another packet, or when the stream is
	// closed and draining. With large kernel buffers packets therefore
	// sit well past their MINBUF deadline before release, which is why
	// buffer size improves the Figure 3 metric.
	if !s.closed && s.wnd.Free() >= s.cfg.MSS+packet.HeaderSize {
		return
	}
	minHold := sim.Time(s.cfg.MinBufRTTs) * s.pacingRTT()
	for {
		e := s.wnd.Front()
		if e == nil || !e.Sent() {
			return
		}
		seq := s.wnd.Base()
		// Failover fence: an evicted head's orphaned leaves are not in the
		// membership table yet, so AllPast would pass trivially over data
		// they still need. Hold the release at the evicted head's last
		// reported subtree minimum until the grace expires or the orphans
		// re-JOIN (their entries then gate the release the normal way).
		if s.headFenceTill != 0 && seqspace.AtOrAfter(seq, s.headFence) {
			if now < s.headFenceTill {
				stall()
				return
			}
			s.headFenceTill = 0
		}
		complete := s.members.AllPast(seq)
		joined := s.cfg.ExpectedReceivers <= 0 || s.maxJoined >= s.cfg.ExpectedReceivers
		if now-e.LastSent < minHold {
			// Early release, for known populations only: the MINBUF hold
			// keeps the packet available for repair while the member
			// picture may still grow (a JOIN in flight) or shift. With
			// ExpectedReceivers set, once that many receivers have joined
			// and every current member's cumulative state covers seq, the
			// picture is provably final — no receiver that matters can
			// still NAK it — so H-RMC frees the buffer ahead of the
			// deadline. Unknown populations (and RMC, which has no member
			// state) always wait out the timer: the hold is their grace
			// period for late joiners. An entry transmitted at this very
			// timestamp is never released: it may still sit un-drained
			// (and un-retained) in the outgoing queue, and freeing it
			// would zero the emitted packet under the driver.
			known := s.cfg.ExpectedReceivers > 0 && s.maxJoined >= s.cfg.ExpectedReceivers
			if s.cfg.Mode != HRMC || !known || !complete || now == e.LastSent {
				if s.cfg.Mode == HRMC && s.cfg.EarlyProbeRTTs > 0 {
					s.maybeEarlyProbe(now, minHold)
				}
				return
			}
			if seq == s.judged {
				s.st.Releases++
				s.st.ReleasesCompleteInfo++
				s.judged++
			}
		} else {
			// Figure 3 metric: judge each packet once, at the moment its
			// MINBUF deadline first passes, regardless of mode and of
			// whether the release then proceeds.
			if seq == s.judged {
				s.st.Releases++
				if complete {
					s.st.ReleasesCompleteInfo++
				}
				s.judged++
			}
			if s.cfg.Mode == HRMC {
				if !joined {
					stall()
					return
				}
				if !complete {
					stall()
					trace.Emit(s.cfg.Trace, now, trace.ReleaseStall, uint32(seq), 0)
					s.probeLacking(now, seq)
					return
				}
			}
		}
		// RMC releases on the timer alone; a NAK for the data later
		// earns a NAK_ERR.
		e = s.wnd.Release()
		trace.Emit(s.cfg.Trace, now, trace.Release, uint32(seq), int64(e.Pkt.WireSize()))
		// The window's reference is done; the pool recycles the buffer
		// once any in-flight send (shared poller) drops its Retain.
		packet.Put(e.Pkt)
		e.Pkt = nil
	}
}

// TryRelease attempts window release outside the tick, with the same
// rules as the Transmitter's release step. Drivers call it right after
// feeding feedback (HandlePacket) so a blocked Write unblocks the
// moment an UPDATE completes the membership picture, instead of up to
// a jiffy later on the next tick.
func (s *Sender) TryRelease(now sim.Time) { s.tryRelease(now) }

// ReleaseBuffers force-releases every buffered packet back to the
// pool, bypassing the reliability rules. It is for teardown of an
// aborted flow only: the machine must not be asked to transmit
// afterwards.
func (s *Sender) ReleaseBuffers() {
	for {
		e := s.wnd.Release()
		if e == nil {
			return
		}
		packet.Put(e.Pkt)
		e.Pkt = nil
	}
}

// maybeEarlyProbe (extension) probes for the front packet before its
// release deadline so the answer arrives by the time the deadline hits.
func (s *Sender) maybeEarlyProbe(now sim.Time, minHold sim.Time) {
	e := s.wnd.Front()
	if e == nil || !e.Sent() {
		return
	}
	lead := sim.Time(s.cfg.EarlyProbeRTTs * float64(s.pacingRTT()))
	if now-e.LastSent < minHold-lead {
		return
	}
	seq := s.wnd.Base()
	if !s.members.AllPast(seq) {
		s.probeLacking(now, seq)
	}
}

// probeLacking unicasts PROBE packets to every member whose state does
// not cover seq, rate-limited per member by the probe timeout. With the
// multicast-probe extension enabled and enough lagging members, a single
// multicast PROBE is sent instead.
func (s *Sender) probeLacking(now sim.Time, seq seqspace.Seq) {
	s.lacking = s.members.Lacking(seq, s.lacking[:0])
	if len(s.lacking) == 0 {
		return
	}
	due := s.lacking[:0]
	for _, m := range s.lacking {
		if now < s.probeDue(m, seq) {
			continue
		}
		due = append(due, m)
	}
	if len(due) == 0 {
		return
	}
	if s.cfg.MulticastProbeThreshold > 0 && len(due) >= s.cfg.MulticastProbeThreshold {
		for _, m := range due {
			s.markProbed(m, seq, now)
		}
		s.st.MulticastProbesSent++
		trace.Emit(s.cfg.Trace, now, trace.ProbeSent, uint32(seq), int64(len(due)))
		s.emit(&packet.Packet{Header: packet.Header{
			Type: packet.TypeProbe,
			Seq:  uint32(seq),
		}}, Dest{Multicast: true})
		return
	}
	for _, m := range due {
		s.markProbed(m, seq, now)
		s.st.ProbesSent++
		trace.Emit(s.cfg.Trace, now, trace.ProbeSent, uint32(seq), 1)
		s.emit(&packet.Packet{Header: packet.Header{
			Type: packet.TypeProbe,
			Seq:  uint32(seq),
		}}, Dest{Node: m.Addr})
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
	if s.stalled {
		return true
	}
	if _, stopped := s.rc.StoppedUntil(); stopped {
		return true
	}
	if _, e := s.wnd.FirstUnsent(); e == nil {
		// No new data to send: the application is idle (or everything
		// is in flight awaiting release).
		return true
	}
	return false
}

// runKeepalive sends KEEPALIVE packets carrying the last sequence number
// transmitted, exponentially backed off to KeepaliveMax (2 s in the
// paper).
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
	s.emit(&packet.Packet{Header: packet.Header{
		Type: packet.TypeKeepalive,
		Seq:  uint32(last),
	}}, Dest{Multicast: true})
	if s.kaBackoff == 0 {
		s.kaBackoff = 2 * kernel.Jiffy
	} else {
		s.kaBackoff *= 2
		if s.kaBackoff > s.cfg.KeepaliveMax {
			s.kaBackoff = s.cfg.KeepaliveMax
		}
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
	var at sim.Time
	ok := false
	wake := func(t sim.Time) {
		if !ok || t < at {
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
		wake(next)
	} else if unsent != nil || len(s.retrans) > 0 {
		wake(s.fundedAt(seq, unsent))
	}
	if s.fenc != nil && s.fenc.Pending() > 0 {
		wake(s.fecLastAdd + s.rc.Beat())
	}
	if t, due := s.releaseWake(); due {
		wake(t)
	}
	if s.needsKeepalive() {
		if t, armed := s.kaTimer.Deadline(); armed {
			wake(t)
		} else {
			wake(next)
		}
	}
	if s.cfg.HeadSilenceTimeout > 0 && s.members.Heads() > 0 {
		wake(s.lastHeadSweep + s.cfg.HeadSilenceTimeout/4)
	}
	if len(s.departed) > 0 {
		wake(s.lastTombSweep + s.cfg.TombstoneTTL)
	}
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

// releaseWake is when tryRelease next has something to do for the front
// of the window — release it, score its MINBUF deadline, or probe for
// it — with the membership picture as it stands.
func (s *Sender) releaseWake() (sim.Time, bool) {
	e := s.wnd.Front()
	if e == nil || !e.Sent() || !s.closed && s.wnd.Free() >= s.cfg.MSS+packet.HeaderSize {
		return 0, false
	}
	seq := s.wnd.Base()
	if s.headFenceTill != 0 && seqspace.AtOrAfter(seq, s.headFence) {
		return s.headFenceTill, true
	}
	minHold := sim.Time(s.cfg.MinBufRTTs) * s.pacingRTT()
	deadline := e.LastSent + minHold
	if s.cfg.Mode != HRMC {
		return deadline, true
	}
	known := s.cfg.ExpectedReceivers > 0 && s.maxJoined >= s.cfg.ExpectedReceivers
	s.lacking = s.members.Lacking(seq, s.lacking[:0])
	switch complete := len(s.lacking) == 0; {
	case complete && known:
		// Early release, any time after the transmission's own instant.
		return e.LastSent + 1, true
	case s.cfg.ExpectedReceivers > 0 && !known:
		// Waiting for JOINs; only the Figure 3 score is on the clock.
		return deadline, seq == s.judged
	case complete:
		return deadline, true
	}
	probe := deadline
	if s.cfg.EarlyProbeRTTs > 0 {
		probe -= sim.Time(s.cfg.EarlyProbeRTTs * float64(s.pacingRTT()))
	}
	due := s.probeDue(s.lacking[0], seq)
	for _, m := range s.lacking[1:] {
		due = min(due, s.probeDue(m, seq))
	}
	return max(probe, due), true
}
