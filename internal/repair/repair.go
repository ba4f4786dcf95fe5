// Package repair implements the hierarchical recovery tier: the repair-
// head role a receiver takes on so the sender tracks O(heads) state
// instead of O(receivers).
//
// A Head sits between the sender and a subtree of downstream receivers.
// Downstream members direct their feedback (JOIN/UPDATE/LEAVE) and
// retransmission requests (HEAD_NAK) at the head instead of the sender.
// The head
//
//   - retains the data packets it has delivered in its own
//     retransmission window (reusing internal/packet refcounting when
//     the packets are pool-owned) and answers HEAD_NAKs from that
//     window by multicasting the repair into its subtree,
//
//   - suppresses duplicate HEAD_NAKs for the same sequence number
//     within a suppression interval, so one loss shared by many members
//     produces one repair,
//
//   - escalates requests it cannot answer to the sender as an ordinary
//     NAK, and
//
//   - periodically emits one aggregated UPDATE (AGG_UPDATE) carrying
//     the minimum next-expected sequence number across itself and all
//     downstream members, which is all the sender needs for its
//     release decision.
//
// The Head is sans-I/O like the sender and receiver machines: the
// embedding receiver feeds it events and ships the packets it decides
// to emit. All methods are single-goroutine, driven by the receiver's
// lock.
package repair

import (
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fixed timings of the repair tier.
const (
	// aggregatePeriod spaces AGG_UPDATEs to the sender. It is
	// deliberately coarser than the receiver's own adaptive UPDATE
	// period: the head speaks for many members, and the sender's
	// release path only needs the subtree minimum, not a fresh sample
	// every RTT.
	aggregatePeriod = 25 * kernel.Jiffy
	// suppressionInterval is how long after answering (or escalating) a
	// sequence number the head ignores further HEAD_NAKs for it — long
	// enough for the repair to reach the subtree, short enough that a
	// lost repair is re-requested quickly.
	suppressionInterval = 4 * kernel.Jiffy
	// LeaveDrainTimeout bounds how long a departing head defers its own
	// LEAVE waiting for the subtree to drain. A silently-dead leaf would
	// otherwise wedge shutdown for the full MemberTimeout.
	LeaveDrainTimeout = 4 * sim.Second
	// declineTTL is how long a declined sequence number is remembered.
	// After expiry a re-asked decline is re-derived through the sender
	// (escalate → NAK_ERR → decline), so a short TTL only costs one
	// extra round trip.
	declineTTL = 2 * sim.Second
)

// Defaults for Config fields left zero.
const (
	// defaultMemberTimeout evicts downstream members that stopped
	// reporting, so a crashed leaf cannot pin the aggregate minimum
	// (and thus the sender's buffer) forever. It must comfortably
	// exceed the receiver's maximum UPDATE period (500 jiffies = 5 s):
	// evicting a live-but-quiet leaf drops it from the aggregate, which
	// is the unsafe direction.
	defaultMemberTimeout = 16 * sim.Second
	// defaultWindowPackets bounds the head's retained retransmission
	// window.
	defaultWindowPackets = 512
)

// Config parameterizes a repair head.
type Config struct {
	// MemberTimeout evicts members not heard from for this long. Zero
	// means 16 seconds.
	MemberTimeout sim.Time
	// WindowPackets bounds the retained retransmission window, in
	// packets. Zero means 512. The embedding receiver raises it to at
	// least twice its receive-window size so that evicted packets are
	// always already consumed (below the receive window's base) — the
	// invariant that makes non-pooled eviction a plain pointer drop.
	WindowPackets int
}

func (c *Config) sanitize() {
	if c.MemberTimeout <= 0 {
		c.MemberTimeout = defaultMemberTimeout
	}
	if c.WindowPackets <= 0 {
		c.WindowPackets = defaultWindowPackets
	}
}

// Member is one downstream receiver the head answers for.
type Member struct {
	// NextExpected is the member's reported next-expected sequence
	// number (its rcv_nxt). Every repair-plane packet carries one, so
	// unlike the sender's membership table there is no unknown state.
	NextExpected seqspace.Seq
	// LastHeard drives timeout-based eviction.
	LastHeard sim.Time
}

// Head is the repair-head state machine a receiver embeds.
type Head struct {
	cfg Config
	st  *stats.Receiver
	// pooled records whether retained packets are pool-owned (the
	// receiver's zero-copy datapath with recycling on). When true the
	// head holds a reference (packet.Retain at retention, packet.Put at
	// eviction); when false — netsim clones, or an aliasing FEC cache —
	// retention is a plain pointer copy and eviction a plain drop:
	// donating a non-pooled packet to the pool could hand its buffer to
	// a new packet while a receive window still aliases it.
	pooled bool

	members map[packet.NodeID]*Member

	// win is the retained retransmission window, keyed by sequence
	// number; low tracks the lowest retained seq so eviction is O(1)
	// amortized (sequence numbers are retained in near-order).
	win map[seqspace.Seq]*packet.Packet
	low seqspace.Seq

	// answered records, per sequence number, when the head last served
	// or escalated a repair — the NAK-suppression state.
	answered stamps

	// declined records sequence numbers the sender refused (NAK_ERR): the
	// data is released end-to-end and re-escalating cannot help, so the
	// head answers further HEAD_NAKs for them with HEAD_DECLINE. Entries
	// expire after declineTTL.
	declined stamps

	// timer paces AGG_UPDATEs and member eviction.
	timer kernel.Timer
}

// NewHead creates a head. pooled declares whether retained packets are
// pool-owned (see the field comment); st receives repair-tier counters
// and must be non-nil.
func NewHead(now sim.Time, cfg Config, pooled bool, st *stats.Receiver) *Head {
	cfg.sanitize()
	h := &Head{
		cfg:      cfg,
		st:       st,
		pooled:   pooled,
		members:  make(map[packet.NodeID]*Member),
		win:      make(map[seqspace.Seq]*packet.Packet),
		answered: stamps{make(map[seqspace.Seq]sim.Time), suppressionInterval, 4 * cfg.WindowPackets},
		declined: stamps{make(map[seqspace.Seq]sim.Time), declineTTL, 4 * cfg.WindowPackets},
	}
	st.RepairHead = 1
	h.timer.ArmIn(now, aggregatePeriod)
	return h
}

// Members returns the current downstream member count.
func (h *Head) Members() int { return len(h.members) }

// Update records a member's reported next-expected sequence number,
// from its JOIN or any later feedback. Unknown members are added — a
// leaf whose JOIN raced the head's startup must not be lost. Unlike the
// sender's monotonic Update, regressions are accepted: they only make
// the aggregate more conservative, which is the safe direction.
func (h *Head) Update(now sim.Time, from packet.NodeID, nextExpected seqspace.Seq) {
	m, ok := h.members[from]
	if !ok {
		m = &Member{}
		h.members[from] = m
		h.st.RepairMembers = int64(len(h.members))
	}
	m.NextExpected = nextExpected
	m.LastHeard = now
}

// Leave removes a departing member.
func (h *Head) Leave(from packet.NodeID) {
	if _, ok := h.members[from]; !ok {
		return
	}
	delete(h.members, from)
	h.st.RepairMembers = int64(len(h.members))
}

// Retain stores a delivered data packet in the head's retransmission
// window, evicting the lowest retained sequence number when the window
// is full. The caller passes packets as the receive window accepts
// them; the head takes its own reference when they are pool-owned.
func (h *Head) Retain(p *packet.Packet) {
	seq := seqspace.Seq(p.Seq)
	if _, dup := h.win[seq]; dup {
		return
	}
	if len(h.win) == 0 || seqspace.Before(seq, h.low) {
		h.low = seq
	}
	if h.pooled {
		packet.Retain(p)
	}
	h.win[seq] = p
	for len(h.win) > h.cfg.WindowPackets {
		// Evict the lowest retained number; low may lag behind holes.
		for !h.drop(h.low) {
			h.low++
		}
		h.low++
	}
}

// drop removes seq from the retained window, returning the head's pool
// reference, and reports whether it was there.
func (h *Head) drop(seq seqspace.Seq) bool {
	p, ok := h.win[seq]
	if ok {
		delete(h.win, seq)
		if h.pooled {
			packet.Put(p)
		}
	}
	return ok
}

// Retained returns the stored packet for seq, if the head still holds
// it. Callers copy the payload before re-emitting — the packet may be
// aliased by the receive window (and, when pooled, by the pool).
func (h *Head) Retained(seq seqspace.Seq) (*packet.Packet, bool) {
	p, ok := h.win[seq]
	return p, ok
}

// stamps remembers, per sequence number, when something last happened
// to it, for ttl. Expired entries are swept once the map outgrows limit.
type stamps struct {
	at    map[seqspace.Seq]sim.Time
	ttl   sim.Time
	limit int
}

func (s *stamps) fresh(now sim.Time, seq seqspace.Seq) bool {
	t, ok := s.at[seq]
	return ok && now-t < s.ttl
}

func (s *stamps) mark(now sim.Time, seq seqspace.Seq) {
	s.at[seq] = now
	if len(s.at) > s.limit {
		for q, t := range s.at {
			if now-t >= s.ttl {
				delete(s.at, q)
			}
		}
	}
}

// Handled implements NAK suppression: it reports whether seq was
// already answered or escalated within the suppression interval, and
// otherwise records now as the time it is being handled. One call per
// requested sequence number, before serving the repair.
func (h *Head) Handled(now sim.Time, seq seqspace.Seq) bool {
	if h.answered.fresh(now, seq) {
		return true
	}
	h.answered.mark(now, seq)
	return false
}

// Decline records that the sender refused seq with a NAK_ERR: the range
// is released and un-servable, so the head answers further HEAD_NAKs
// for it with an explicit HEAD_DECLINE instead of re-escalating.
func (h *Head) Decline(now sim.Time, seq seqspace.Seq) { h.declined.mark(now, seq) }

// Declined reports whether seq carries an unexpired decline.
func (h *Head) Declined(now sim.Time, seq seqspace.Seq) bool { return h.declined.fresh(now, seq) }

// Aggregate returns the minimum next-expected sequence number across
// the head's own frontier and all downstream members, plus the member
// count — the AGG_UPDATE contents. The minimum is also what every other
// head-to-sender feedback packet must report instead of the head's own
// rcv_nxt, so the sender never releases data a downstream member still
// needs.
func (h *Head) Aggregate(own seqspace.Seq) (min seqspace.Seq, members int) {
	min = own
	for _, m := range h.members {
		if seqspace.Before(m.NextExpected, min) {
			min = m.NextExpected
		}
	}
	return min, len(h.members)
}

// Tick drives the head's timer. It returns true when the aggregate
// period elapsed — the embedding receiver then emits an AGG_UPDATE.
// Expired members are evicted on the same cadence.
func (h *Head) Tick(now sim.Time) bool {
	if !h.timer.Fire(now) {
		return false
	}
	for addr, m := range h.members {
		if now-m.LastHeard >= h.cfg.MemberTimeout {
			delete(h.members, addr)
			h.st.RepairMembersEvicted++
		}
	}
	h.st.RepairMembers = int64(len(h.members))
	h.timer.ArmIn(now, aggregatePeriod)
	return true
}

// Timer exposes the head's timer so the embedding receiver can fold it
// into its own NextWake calculation.
func (h *Head) Timer() *kernel.Timer { return &h.timer }

// ReleaseAll drops the retained window, returning pool-owned packets.
// For teardown; the head must not be used afterwards.
func (h *Head) ReleaseAll() {
	for seq := range h.win {
		h.drop(seq)
	}
}
