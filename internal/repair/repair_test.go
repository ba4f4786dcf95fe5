package repair

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/stats"
)

func newHead(pooled bool, cfg Config) (*Head, *stats.Receiver) {
	st := &stats.Receiver{}
	return NewHead(0, cfg, pooled, st), st
}

func TestMembershipJoinUpdateLeave(t *testing.T) {
	h, st := newHead(false, Config{})
	if st.RepairHead != 1 {
		t.Fatalf("RepairHead gauge = %d, want 1", st.RepairHead)
	}
	h.Update(10, 7, 100)
	h.Update(20, 7, 105) // a re-JOIN refreshes the entry
	if h.Members() != 1 || st.RepairMembers != 1 {
		t.Fatalf("members = %d (gauge %d), want 1", h.Members(), st.RepairMembers)
	}

	// Update on an unknown member joins it implicitly.
	h.Update(30, 8, 90)
	if h.Members() != 2 {
		t.Fatalf("members = %d after implicit join, want 2", h.Members())
	}

	// Regressions are accepted — the safe direction for an aggregate.
	h.Update(40, 7, 50)
	if min, _ := h.Aggregate(200); min != 50 {
		t.Fatalf("aggregate min = %d after regression, want 50", min)
	}

	h.Leave(7)
	h.Leave(7) // idempotent
	if h.Members() != 1 || st.RepairMembers != 1 {
		t.Fatalf("members = %d (gauge %d) after leave, want 1", h.Members(), st.RepairMembers)
	}
}

func TestAggregateClamp(t *testing.T) {
	h, _ := newHead(false, Config{})
	if min, n := h.Aggregate(42); min != 42 || n != 0 {
		t.Fatalf("empty aggregate = (%d, %d), want (42, 0)", min, n)
	}
	h.Update(0, 1, 10)
	h.Update(0, 2, 30)
	if min, n := h.Aggregate(20); min != 10 || n != 2 {
		t.Fatalf("aggregate = (%d, %d), want (10, 2)", min, n)
	}
	if got, _ := h.Aggregate(5); got != 5 {
		t.Fatalf("Aggregate(5) = %d, want the head's own lower frontier", got)
	}
	// The subtree is drained to 30 once the aggregate reaches it.
	if min, _ := h.Aggregate(30); min == 30 {
		t.Fatal("aggregate at 30 with a member at 10")
	}
	h.Update(0, 1, 30)
	if min, _ := h.Aggregate(30); min != 30 {
		t.Fatal("aggregate short of 30 with every member at 30")
	}
}

func pkt(seq uint32) *packet.Packet {
	return &packet.Packet{Header: packet.Header{Type: packet.TypeData, Seq: seq}, Payload: []byte{1}}
}

func TestRetainEvictsLowestBeyondWindow(t *testing.T) {
	h, _ := newHead(false, Config{WindowPackets: 4})
	for seq := uint32(10); seq < 17; seq++ {
		h.Retain(pkt(seq))
		h.Retain(pkt(seq)) // duplicates are dropped, not double-counted
	}
	for seq := seqspace.Seq(10); seq < 13; seq++ {
		if _, ok := h.Retained(seq); ok {
			t.Errorf("seq %d still retained, want evicted", seq)
		}
	}
	for seq := seqspace.Seq(13); seq < 17; seq++ {
		if _, ok := h.Retained(seq); !ok {
			t.Errorf("seq %d not retained", seq)
		}
	}
}

// Pooled retention must hold one pool reference per retained packet and
// return it on eviction and teardown, so the shared pool's outstanding
// count goes back to zero.
func TestRetainPooledRefcounting(t *testing.T) {
	before := packet.PoolStats()
	h, _ := newHead(true, Config{WindowPackets: 2})
	ps := make([]*packet.Packet, 4)
	for i := range ps {
		p := packet.Get()
		p.Type = packet.TypeData
		p.Seq = uint32(100 + i)
		ps[i] = p
		h.Retain(p) // head takes its own reference
	}
	// Drop the simulated receive-window references.
	for _, p := range ps {
		packet.Put(p)
	}
	// Two were evicted by the window bound; release the rest.
	h.ReleaseAll()
	after := packet.PoolStats()
	gets := after.Gets - before.Gets
	puts := after.Puts - before.Puts
	if gets != puts {
		t.Fatalf("pool imbalance: %d gets vs %d puts", gets, puts)
	}
}

func TestHandledSuppression(t *testing.T) {
	h, _ := newHead(false, Config{})
	if h.Handled(100, 5) {
		t.Fatal("first request suppressed")
	}
	if !h.Handled(105, 5) {
		t.Fatal("duplicate within the interval not suppressed")
	}
	if h.Handled(100, 6) {
		t.Fatal("different sequence number suppressed")
	}
	if h.Handled(100+suppressionInterval, 5) {
		t.Fatal("request after the interval suppressed")
	}
}

func TestTickEvictsSilentMembers(t *testing.T) {
	const p = aggregatePeriod
	h, st := newHead(false, Config{MemberTimeout: 10 * p})
	h.Update(0, 1, 10)
	h.Update(0, 2, 10)
	if h.Tick(p / 2) {
		t.Fatal("Tick fired before the aggregate period")
	}
	if !h.Tick(p) {
		t.Fatal("Tick did not fire at the aggregate period")
	}
	// Member 2 keeps reporting; member 1 goes silent.
	for now := 2 * p; now <= 9*p; now += p {
		h.Update(now, 2, 20)
		h.Tick(now)
	}
	if h.Members() != 2 {
		t.Fatalf("members = %d before the timeout, want 2", h.Members())
	}
	if !h.Tick(11 * p) {
		t.Fatal("Tick did not fire")
	}
	if h.Members() != 1 || st.RepairMembersEvicted != 1 {
		t.Fatalf("members = %d, evicted = %d; want 1 member left and 1 eviction",
			h.Members(), st.RepairMembersEvicted)
	}
	if _, ok := h.Retained(0); ok {
		t.Fatal("unrelated sequence retained")
	}
	// The survivor alone now defines the aggregate.
	if min, n := h.Aggregate(100); min != 20 || n != 1 {
		t.Fatalf("aggregate = (%d, %d) after eviction, want (20, 1)", min, n)
	}
}
