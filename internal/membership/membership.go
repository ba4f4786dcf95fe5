// Package membership implements the H-RMC sender's group-membership
// structure: a hash table of receivers combined with an intrusive doubly
// linked list, as described in Section 3 ("group membership is maintained
// in the form of a doubly linked list as well as a hashed list of all the
// receivers").
//
// Per the paper the sender keeps minimal per-receiver state: the unicast
// address and the sequence number the receiver is expecting next. This
// implementation also carries the bookkeeping the protocol needs around
// that state (when the receiver was last heard from, when it was last
// probed) — information the kernel implementation kept implicitly in its
// timers.
package membership

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// HashTableSize mirrors RMC_HTABLE_SIZE from the kernel structures shown
// in Figure 7.
const HashTableSize = 64

// Member is the per-receiver state kept by the sender.
type Member struct {
	// Addr is the receiver's unicast address.
	Addr packet.NodeID
	// NextExpected is the next sequence number the receiver is expecting,
	// updated from every feedback packet (NAK, CONTROL, UPDATE, JOIN).
	NextExpected seqspace.Seq
	// KnownState reports whether any feedback has been received yet; a
	// member that joined but has said nothing about sequence numbers has
	// unknown state and must be probed before a release past its join
	// point.
	KnownState bool
	// LastHeard is when feedback last arrived from this receiver.
	LastHeard sim.Time
	// JoinedAt is when the receiver's (most recent) JOIN arrived. A
	// restarted or re-homed receiver legitimately NAKs data transmitted
	// before it existed; RTT sampling must ignore such packets, since
	// transmission-to-NAK time then measures history, not the network.
	JoinedAt sim.Time
	// LastProbed is when the sender last unicast a PROBE to this
	// receiver, used to rate-limit probing to once per round trip.
	LastProbed sim.Time
	// ProbeSeq is the sequence number carried by the outstanding probe,
	// used to take Karn-safe RTT samples from the response.
	ProbeSeq seqspace.Seq
	// ProbeOutstanding reports whether an un-answered probe exists.
	ProbeOutstanding bool
	// ProbeTries counts transmissions of the outstanding probe; a
	// response to a probe with ProbeTries > 1 is an ambiguous RTT sample
	// under Karn's algorithm and is discarded.
	ProbeTries int

	// Head marks a repair-head entry (hierarchical recovery extension):
	// the member speaks for a subtree of downstream receivers via
	// AGG_UPDATEs, and NextExpected is the subtree minimum rather than
	// the member's own frontier.
	Head bool
	// Members is the downstream receiver count a head last reported;
	// zero for leaf entries.
	Members int

	// Intrusive doubly linked list over all members.
	prev, next *Member
	// Hash chain.
	hnext *Member
}

// Table is the sender's membership structure. The zero value is ready to
// use.
type Table struct {
	buckets [HashTableSize]*Member
	// head/tail of the doubly linked list, in join order.
	head, tail *Member
	count      int
	// heads and downstream track the repair tier incrementally: how
	// many members are repair heads, and the sum of their reported
	// downstream member counts.
	heads      int
	downstream int
}

func bucket(addr packet.NodeID) int { return int(uint32(addr) % HashTableSize) }

// Len returns the number of members.
func (t *Table) Len() int { return t.count }

// Lookup returns the member with the given address, or nil.
func (t *Table) Lookup(addr packet.NodeID) *Member {
	for m := t.buckets[bucket(addr)]; m != nil; m = m.hnext {
		if m.Addr == addr {
			return m
		}
	}
	return nil
}

// Add inserts a member for addr (the kernel's add_member) and returns it.
// If the address is already present, the existing member is returned and
// reported as not added — a duplicate JOIN is idempotent.
func (t *Table) Add(addr packet.NodeID, now sim.Time) (m *Member, added bool) {
	if m := t.Lookup(addr); m != nil {
		m.LastHeard = now
		return m, false
	}
	m = &Member{Addr: addr, LastHeard: now, JoinedAt: now}
	b := bucket(addr)
	m.hnext = t.buckets[b]
	t.buckets[b] = m
	if t.tail == nil {
		t.head, t.tail = m, m
	} else {
		m.prev = t.tail
		t.tail.next = m
		t.tail = m
	}
	t.count++
	return m, true
}

// Remove deletes the member with the given address (the kernel's
// rm_member) and reports whether it was present.
func (t *Table) Remove(addr packet.NodeID) bool {
	b := bucket(addr)
	var hprev *Member
	m := t.buckets[b]
	for m != nil && m.Addr != addr {
		hprev, m = m, m.hnext
	}
	if m == nil {
		return false
	}
	if hprev == nil {
		t.buckets[b] = m.hnext
	} else {
		hprev.hnext = m.hnext
	}
	if m.Head {
		t.heads--
		t.downstream -= m.Members
	}
	if m.prev == nil {
		t.head = m.next
	} else {
		m.prev.next = m.next
	}
	if m.next == nil {
		t.tail = m.prev
	} else {
		m.next.prev = m.prev
	}
	m.prev, m.next, m.hnext = nil, nil, nil
	t.count--
	return true
}

// Update records feedback from addr carrying the receiver's next expected
// sequence number (the kernel's update_mem). State only moves forward: a
// reordered stale report never regresses NextExpected. Unknown members are
// ignored (feedback from a host that never joined) and reported false.
func (t *Table) Update(addr packet.NodeID, nextExpected seqspace.Seq, now sim.Time) bool {
	m := t.Lookup(addr)
	if m == nil {
		return false
	}
	if !m.KnownState || seqspace.After(nextExpected, m.NextExpected) {
		m.NextExpected = nextExpected
		m.KnownState = true
	}
	m.LastHeard = now
	if m.ProbeOutstanding && seqspace.After(nextExpected, m.ProbeSeq) {
		m.ProbeOutstanding = false
		m.ProbeTries = 0
	}
	return true
}

// UpdateAggregate records an AGG_UPDATE from a repair head: nextExpected
// is the minimum next-expected sequence number over the head's whole
// subtree and members its downstream receiver count. Unlike Update it is
// not monotonic — a new leaf joining behind the subtree front legitimately
// regresses the minimum, and regression is the safe direction (the sender
// merely holds data longer). Unknown addresses are ignored and reported
// false.
func (t *Table) UpdateAggregate(addr packet.NodeID, nextExpected seqspace.Seq, members int, now sim.Time) bool {
	m := t.Lookup(addr)
	if m == nil {
		return false
	}
	if !m.Head {
		m.Head = true
		t.heads++
	}
	t.downstream += members - m.Members
	m.Members = members
	m.NextExpected = nextExpected
	m.KnownState = true
	m.LastHeard = now
	if m.ProbeOutstanding && seqspace.After(nextExpected, m.ProbeSeq) {
		m.ProbeOutstanding = false
		m.ProbeTries = 0
	}
	return true
}

// Heads returns how many members are repair heads.
func (t *Table) Heads() int { return t.heads }

// Downstream returns the total downstream receiver count reported by
// repair heads.
func (t *Table) Downstream() int { return t.downstream }

// Lacking appends to dst every member whose state is unknown or whose
// next expected sequence number is not past seq — the set the sender must
// probe before releasing seq.
func (t *Table) Lacking(seq seqspace.Seq, dst []*Member) []*Member {
	for m := t.head; m != nil; m = m.next {
		if !m.KnownState || !seqspace.After(m.NextExpected, seq) {
			dst = append(dst, m)
		}
	}
	return dst
}

// StaleHeads appends to dst every repair-head member whose last feedback
// of any kind is at least timeout old — the candidates for silent-head
// eviction. Leaves are never reported: an idle leaf is probed, not
// evicted, because only heads carry an obligation to speak periodically
// (the AGG_UPDATE timer). Callers collect first and Remove afterwards;
// removing during the walk is unsafe.
func (t *Table) StaleHeads(now, timeout sim.Time, dst []*Member) []*Member {
	for m := t.head; m != nil; m = m.next {
		if m.Head && now-m.LastHeard >= timeout {
			dst = append(dst, m)
		}
	}
	return dst
}

// MinNextExpected returns the smallest next-expected sequence number over
// all members with known state, and whether any member has known state.
func (t *Table) MinNextExpected() (seqspace.Seq, bool) {
	var min seqspace.Seq
	found := false
	for m := t.head; m != nil; m = m.next {
		if !m.KnownState {
			continue
		}
		if !found || seqspace.Before(m.NextExpected, min) {
			min, found = m.NextExpected, true
		}
	}
	return min, found
}
