package membership

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

func TestAddLookupRemove(t *testing.T) {
	var tb Table
	if tb.Len() != 0 {
		t.Fatal("zero table not empty")
	}
	m, added := tb.Add(5, 100)
	if !added || m == nil || m.Addr != 5 {
		t.Fatalf("Add = %v,%v", m, added)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
	if tb.Lookup(5) != m {
		t.Error("Lookup missed the member")
	}
	if tb.Lookup(6) != nil {
		t.Error("Lookup found a ghost")
	}
	// Duplicate join is idempotent and refreshes LastHeard.
	m2, added := tb.Add(5, 200)
	if added || m2 != m {
		t.Error("duplicate Add created a new member")
	}
	if m.LastHeard != 200 {
		t.Error("duplicate Add did not refresh LastHeard")
	}
	if !tb.Remove(5) {
		t.Error("Remove returned false")
	}
	if tb.Remove(5) {
		t.Error("second Remove returned true")
	}
	if tb.Len() != 0 || tb.Lookup(5) != nil {
		t.Error("Remove left state behind")
	}
}

func TestHashCollisions(t *testing.T) {
	var tb Table
	// Addresses 1, 1+64, 1+128 share a bucket.
	addrs := []packet.NodeID{1, 1 + HashTableSize, 1 + 2*HashTableSize}
	for _, a := range addrs {
		tb.Add(a, 0)
	}
	for _, a := range addrs {
		if got := tb.Lookup(a); got == nil || got.Addr != a {
			t.Errorf("Lookup(%d) = %v", a, got)
		}
	}
	// Remove the middle of the chain.
	tb.Remove(addrs[1])
	if tb.Lookup(addrs[1]) != nil {
		t.Error("removed member still found")
	}
	if tb.Lookup(addrs[0]) == nil || tb.Lookup(addrs[2]) == nil {
		t.Error("removal broke the chain")
	}
}

// Lacking walks the member list in join order, and a removal keeps the
// order of the rest.
func TestLackingJoinOrder(t *testing.T) {
	var tb Table
	for i := packet.NodeID(10); i < 15; i++ {
		tb.Add(i, 0)
	}
	tb.Remove(12)
	var got []packet.NodeID
	for _, m := range tb.Lacking(0, nil) {
		got = append(got, m.Addr)
	}
	want := []packet.NodeID{10, 11, 13, 14}
	if len(got) != len(want) {
		t.Fatalf("Lacking order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lacking order %v, want %v", got, want)
		}
	}
}

func TestUpdateMonotone(t *testing.T) {
	var tb Table
	tb.Add(1, 0)
	if tb.Update(99, 5, 0) {
		t.Error("Update for unknown member returned true")
	}
	if !tb.Update(1, 10, 50) {
		t.Fatal("Update returned false")
	}
	m := tb.Lookup(1)
	if !m.KnownState || m.NextExpected != 10 || m.LastHeard != 50 {
		t.Fatalf("after update: %+v", m)
	}
	// A stale (reordered) report must not regress state but still counts
	// as hearing from the receiver.
	tb.Update(1, 7, 60)
	if m.NextExpected != 10 {
		t.Error("stale update regressed NextExpected")
	}
	if m.LastHeard != 60 {
		t.Error("stale update did not refresh LastHeard")
	}
	tb.Update(1, 12, 70)
	if m.NextExpected != 12 {
		t.Error("fresh update ignored")
	}
}

func TestUpdateClearsProbe(t *testing.T) {
	var tb Table
	m, _ := tb.Add(1, 0)
	m.ProbeOutstanding = true
	m.ProbeSeq = 9
	tb.Update(1, 9, 10) // next expected 9 means seq 9 NOT received yet
	if !m.ProbeOutstanding {
		t.Error("probe cleared by a response that does not cover the probe seq")
	}
	tb.Update(1, 10, 20) // now 9 is covered
	if m.ProbeOutstanding {
		t.Error("probe not cleared by a covering response")
	}
}

func TestAllPastAndLacking(t *testing.T) {
	var tb Table
	if got := tb.Lacking(100, nil); len(got) != 0 {
		t.Errorf("empty table lacks %d members; it must be trivially past any seq", len(got))
	}
	tb.Add(1, 0)
	tb.Add(2, 0)
	if got := tb.Lacking(0, nil); len(got) != 2 {
		t.Fatalf("Lacking = %d members, want 2: unknown state is never past", len(got))
	}
	tb.Update(1, 6, 0)
	tb.Update(2, 4, 0)
	if got := tb.Lacking(3, nil); len(got) != 0 {
		t.Errorf("Lacking(3) = %d members with next-expected {6,4}, want 0", len(got))
	}
	lack := tb.Lacking(4, nil)
	if len(lack) != 1 || lack[0].Addr != 2 {
		t.Errorf("Lacking(4) = %v", lack)
	}
}

func TestMinNextExpected(t *testing.T) {
	var tb Table
	if _, ok := tb.MinNextExpected(); ok {
		t.Error("empty table reported a minimum")
	}
	tb.Add(1, 0)
	if _, ok := tb.MinNextExpected(); ok {
		t.Error("unknown-state member reported a minimum")
	}
	tb.Update(1, 10, 0)
	tb.Add(2, 0)
	tb.Update(2, 7, 0)
	min, ok := tb.MinNextExpected()
	if !ok || min != 7 {
		t.Errorf("MinNextExpected = %d,%v, want 7,true", min, ok)
	}
	// Wrap-aware minimum.
	tb.Update(2, 0xFFFFFFF0, 0) // ignored: stale (before 7? no — after)
	// 0xFFFFFFF0 is before 7 in wrap arithmetic, so it is stale and
	// NextExpected stays 7.
	min, _ = tb.MinNextExpected()
	if min != 7 {
		t.Errorf("stale wrap update changed minimum to %d", min)
	}
}

// Property: the table agrees with a reference map implementation under a
// random operation sequence, and the linked list stays consistent with
// the hash table.
func TestPropTableMatchesMap(t *testing.T) {
	type op struct {
		Kind uint8
		Addr uint8
		Seq  uint32
	}
	f := func(ops []op) bool {
		var tb Table
		ref := map[packet.NodeID]seqspace.Seq{}
		known := map[packet.NodeID]bool{}
		now := sim.Time(0)
		for _, o := range ops {
			addr := packet.NodeID(o.Addr % 40)
			now += sim.Millisecond
			switch o.Kind % 3 {
			case 0: // add
				tb.Add(addr, now)
				if _, ok := ref[addr]; !ok {
					ref[addr] = 0
					known[addr] = false
				}
			case 1: // remove
				tb.Remove(addr)
				delete(ref, addr)
				delete(known, addr)
			case 2: // update
				s := seqspace.Seq(o.Seq % 1000)
				tb.Update(addr, s, now)
				if _, ok := ref[addr]; ok {
					if !known[addr] || seqspace.After(s, ref[addr]) {
						ref[addr] = s
						known[addr] = true
					}
				}
			}
		}
		if tb.Len() != len(ref) {
			return false
		}
		// Every map entry is in the table with matching state.
		for a, s := range ref {
			m := tb.Lookup(a)
			if m == nil || m.KnownState != known[a] {
				return false
			}
			if known[a] && m.NextExpected != s {
				return false
			}
		}
		// The linked list visits exactly the map's members, once each.
		seen := map[packet.NodeID]int{}
		for m := tb.head; m != nil; m = m.next {
			seen[m.Addr]++
		}
		if len(seen) != len(ref) {
			return false
		}
		for a, n := range seen {
			if n != 1 {
				return false
			}
			if _, ok := ref[a]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Lacking(seq) is exactly the members, in join order, whose
// reported next-expected is not past seq; it is empty exactly when all
// are past.
func TestPropAllPastLackingAgree(t *testing.T) {
	f := func(nexts []uint16, seq uint16) bool {
		var tb Table
		var want []packet.NodeID
		for i, n := range nexts {
			a := packet.NodeID(i + 1)
			tb.Add(a, 0)
			tb.Update(a, seqspace.Seq(n), 0)
			if !seqspace.After(seqspace.Seq(n), seqspace.Seq(seq)) {
				want = append(want, a)
			}
		}
		got := tb.Lacking(seqspace.Seq(seq), nil)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Addr != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// UpdateAggregate (hierarchical repair tier) is non-monotonic: a new
// leaf joining behind the subtree front legitimately regresses the
// head's reported minimum, and the sender must honor it.
func TestUpdateAggregateAllowsRegression(t *testing.T) {
	var tb Table
	tb.Add(1, 0)
	if !tb.UpdateAggregate(1, 100, 10, 0) {
		t.Fatal("UpdateAggregate on a present member returned false")
	}
	if tb.UpdateAggregate(2, 50, 3, 0) {
		t.Fatal("UpdateAggregate on an absent member returned true")
	}
	m := tb.Lookup(1)
	if !m.Head || !m.KnownState || m.NextExpected != 100 || m.Members != 10 {
		t.Fatalf("member after aggregate = %+v", *m)
	}
	// Regression (monotonic Update would refuse this).
	tb.UpdateAggregate(1, 60, 11, 1)
	if m.NextExpected != 60 || m.Members != 11 {
		t.Fatalf("aggregate regression not applied: next=%d members=%d", m.NextExpected, m.Members)
	}
	tb.Update(1, 40, 2)
	if m.NextExpected != 60 {
		t.Fatalf("plain Update regressed a known member: next=%d", m.NextExpected)
	}
}

// Heads and Downstream track the repair-tier shape through join,
// aggregate updates, and removal.
func TestHeadsAndDownstreamCounters(t *testing.T) {
	var tb Table
	for a := packet.NodeID(1); a <= 3; a++ {
		tb.Add(a, 0)
	}
	tb.UpdateAggregate(1, 10, 4, 0)
	tb.UpdateAggregate(2, 10, 6, 0)
	tb.Update(3, 10, 0) // a plain leaf reporting directly
	if tb.Heads() != 2 || tb.Downstream() != 10 {
		t.Fatalf("heads=%d downstream=%d, want 2 and 10", tb.Heads(), tb.Downstream())
	}
	// Shrinking a subtree shrinks the downstream count.
	tb.UpdateAggregate(2, 12, 5, 1)
	if tb.Downstream() != 9 {
		t.Fatalf("downstream=%d after shrink, want 9", tb.Downstream())
	}
	// A second aggregate from the same head does not double-count it.
	if tb.Heads() != 2 {
		t.Fatalf("heads=%d after repeat aggregate, want 2", tb.Heads())
	}
	tb.Remove(2)
	if tb.Heads() != 1 || tb.Downstream() != 4 {
		t.Fatalf("heads=%d downstream=%d after removing a head, want 1 and 4", tb.Heads(), tb.Downstream())
	}
	tb.Remove(3)
	if tb.Heads() != 1 || tb.Downstream() != 4 {
		t.Fatalf("heads=%d downstream=%d after removing a leaf, want 1 and 4", tb.Heads(), tb.Downstream())
	}
}

// StaleHeads reports only repair heads past the timeout: leaves are
// probed, not evicted, and a recently heard head is not stale.
func TestStaleHeads(t *testing.T) {
	var tb Table
	for a := packet.NodeID(1); a <= 3; a++ {
		tb.Add(a, 0)
	}
	tb.UpdateAggregate(1, 10, 4, 0) // head, silent since t=0
	tb.UpdateAggregate(2, 10, 6, 0) // head, will speak again
	tb.Update(3, 10, 0)             // leaf, silent since t=0
	tb.UpdateAggregate(2, 12, 6, 900)
	stale := tb.StaleHeads(1000, 1000, nil)
	if len(stale) != 1 || stale[0].Addr != 1 {
		t.Fatalf("stale heads = %v, want exactly head 1", stale)
	}
	// JoinedAt marks the most recent explicit JOIN: Add on a present
	// member refreshes LastHeard but not JoinedAt (that is the caller's
	// restart signal to apply).
	m, added := tb.Add(1, 1100)
	if added {
		t.Fatal("Add on a present member reported added")
	}
	if m.JoinedAt != 0 || m.LastHeard != 1100 {
		t.Fatalf("JoinedAt=%v LastHeard=%v, want 0 and 1100", m.JoinedAt, m.LastHeard)
	}
	if got := tb.StaleHeads(1100, 1000, nil); len(got) != 0 {
		t.Fatalf("refreshed head still stale: %v", got)
	}
}
