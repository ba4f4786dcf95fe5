package netsim

import (
	"testing"

	"repro/internal/rate"
	"repro/internal/sender"
	"repro/internal/sim"
)

// hierarchyTransfer runs the two-level model and returns it with the
// run result and the fold of every packet its machines emitted. The same
// topology and loss model serve the hierarchical and the flat (baseline)
// configuration.
func hierarchyTransfer(t *testing.T, flat bool, heads, leavesPerHead int, size int64, seed uint64) (*Hierarchy, Result, *PacketHash) {
	t.Helper()
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate100Mbps
	h := NewHierarchy(HierarchyConfig{
		Heads:         heads,
		LeavesPerHead: leavesPerHead,
		Flat:          flat,
		Size:          size,
		Buf:           256 << 10,
		Seed:          seed,
		Delay:         10 * sim.Millisecond,
		LeafDelay:     2 * sim.Millisecond,
		HeadLoss:      0.01,
		SubtreeLoss:   0.02,
		LeafLoss:      0.005,
	}, sender.Config{
		SndBuf: 256 << 10,
		Mode:   sender.HRMC,
		Rate:   rcfg,
	})
	ph := NewPacketHash()
	h.Seams(false, ph.Add)
	res := h.Run(120 * sim.Second)
	return h, res, ph
}

// TestHierarchyScale is the acceptance scenario for the repair tier:
// 10,000+ receivers behind 100 repair heads complete a lossy transfer
// bit-exact while the sender tracks only the heads, and the feedback
// the sender receives shrinks by an order of magnitude against the
// same population reporting flat. Both arms are pinned to the packets
// their machines emitted when the pins were taken, so a refactor of the
// sender, the receiver roles or this model cannot move them unnoticed.
func TestHierarchyScale(t *testing.T) {
	const (
		heads  = 100
		leaves = 100 // per head: 100 + 100*100 = 10,100 receivers
		size   = 96 << 10
	)
	pinned := func(arm string, ph *PacketHash, packets int, sum uint64) {
		t.Logf("%s: %d packets, FNV %016x", arm, ph.Packets, ph.Sum())
		if ph.Packets != packets || ph.Sum() != sum {
			t.Errorf("%s arm emitted %d packets, FNV %016x; pinned: %d packets, FNV %016x",
				arm, ph.Packets, ph.Sum(), packets, sum)
		}
	}
	hier, res, hierHash := hierarchyTransfer(t, false, heads, leaves, size, 11)
	if !res.Completed {
		t.Fatal("hierarchical transfer did not complete")
	}
	if res.NICDrops == 0 {
		t.Fatal("loss model produced no drops; test is vacuous")
	}
	for _, nd := range hier.Nodes() {
		if nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("node %d delivered %d bytes (%d bad), want %d exact",
				nd.id, nd.Received, nd.BadBytes, size)
		}
	}

	// O(heads) sender state: only heads ever enter the membership table.
	if mj := hier.Sender().MaxJoined(); mj > heads+2 {
		t.Errorf("sender tracked %d members, want <= heads+2 = %d", mj, heads+2)
	}

	// The repair tier actually worked, not just idled: heads answered
	// downstream requests, suppressed duplicates from correlated subtree
	// loss, and aggregated their subtrees' state.
	var answered, suppressed, escalated, aggs int64
	for _, nd := range hier.Nodes()[:heads] {
		st := nd.M.Stats()
		answered += st.HeadNaksAnswered
		suppressed += st.HeadNaksSuppressed
		escalated += st.HeadNaksEscalated
		aggs += st.AggUpdatesSent
	}
	if answered == 0 {
		t.Error("no HEAD_NAK was answered by any head")
	}
	if suppressed == 0 {
		t.Error("correlated subtree loss suppressed no duplicate HEAD_NAKs")
	}
	if aggs == 0 {
		t.Error("heads sent no AGG_UPDATEs")
	}
	t.Logf("hier: feedback=%d answered=%d suppressed=%d escalated=%d aggs=%d maxJoined=%d",
		hier.SenderFeedback, answered, suppressed, escalated, aggs, hier.Sender().MaxJoined())

	// Baseline: same tree, flat reporting.
	flat, fres, flatHash := hierarchyTransfer(t, true, heads, leaves, size, 11)
	if !fres.Completed {
		t.Fatal("flat transfer did not complete")
	}
	for _, nd := range flat.Nodes() {
		if nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("flat node %d delivered %d bytes (%d bad), want %d exact",
				nd.id, nd.Received, nd.BadBytes, size)
		}
	}
	t.Logf("flat: feedback=%d maxJoined=%d", flat.SenderFeedback, flat.Sender().MaxJoined())
	if hier.SenderFeedback == 0 {
		t.Fatal("hierarchical run recorded no sender feedback at all")
	}
	if ratio := float64(flat.SenderFeedback) / float64(hier.SenderFeedback); ratio < 10 {
		t.Errorf("sender feedback reduced only %.1fx (flat %d, hier %d), want >= 10x",
			ratio, flat.SenderFeedback, hier.SenderFeedback)
	}
	pinned("hierarchical", hierHash, 70655, 0xc65d5fad0fc2853c)
	pinned("flat", flatHash, 74563, 0x1fa921842995a97e)
}

// TestHierarchySmallTree exercises the same machinery at a size cheap
// enough for -race and repeated runs: every leaf still gets an exact
// copy and the sender still tracks only the heads.
func TestHierarchySmallTree(t *testing.T) {
	const (
		heads  = 4
		leaves = 8
		size   = 64 << 10
	)
	hier, res, _ := hierarchyTransfer(t, false, heads, leaves, size, 3)
	if !res.Completed {
		t.Fatal("transfer did not complete")
	}
	for _, nd := range hier.Nodes() {
		if nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("node %d delivered %d bytes (%d bad), want %d exact",
				nd.id, nd.Received, nd.BadBytes, size)
		}
	}
	if mj := hier.Sender().MaxJoined(); mj > heads+2 {
		t.Errorf("sender tracked %d members, want <= %d", mj, heads+2)
	}
}
