package netsim

import (
	"testing"

	"repro/internal/rate"
	"repro/internal/sender"
	"repro/internal/sim"
)

// scaleGroup is every group of the scale scenarios: a 10 ms path from
// the sender and 2 % loss, 1.8 % of it correlated at the group's router
// (the head loses the packet with its leaves, which is what makes
// escalation and suppression happen) and 0.2 % at each host's NIC (which
// a head can answer from what it holds).
var scaleGroup = Group{Delay: 10 * sim.Millisecond, Loss: 0.02}

// hierarchyTransfer runs a repair tier on the Network and returns it with
// the run result and the fold of every packet its machines emitted. The
// same groups and loss serve the hierarchical and the flat (baseline)
// configuration.
func hierarchyTransfer(t *testing.T, flat bool, heads, leavesPerHead int, size int64, seed uint64) (*Network, Result, *PacketHash) {
	t.Helper()
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate100Mbps
	n := Tree{
		Heads:  heads,
		Leaves: leavesPerHead,
		Flat:   flat,
		Size:   size,
		Buf:    256 << 10,
		Seed:   seed,
		Group:  scaleGroup,
	}.Build(sender.Config{
		SndBuf: 256 << 10,
		Mode:   sender.HRMC,
		Rate:   rcfg,
	})
	ph := NewPacketHash()
	n.Seams(false, ph.Add)
	res := n.Run(120 * sim.Second)
	return n, res, ph
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
	if res.NICDrops+res.RouterDrops == 0 {
		t.Fatal("loss model produced no drops; test is vacuous")
	}
	for _, nd := range hier.Receivers() {
		if nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("node %d delivered %d bytes (%d bad), want %d exact",
				nd.id, nd.Received, nd.BadBytes, size)
		}
	}

	// O(heads) sender state: only heads ever enter the membership table.
	if mj := hier.Sender().M.MaxJoined(); mj > heads+2 {
		t.Errorf("sender tracked %d members, want <= heads+2 = %d", mj, heads+2)
	}

	// The repair tier actually worked, not just idled: heads answered
	// downstream requests, suppressed duplicates from correlated subtree
	// loss, escalated what they lost too, and aggregated their subtrees'
	// state.
	var answered, suppressed, escalated, aggs int64
	for _, nd := range hier.Receivers()[:heads] {
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
	if escalated == 0 {
		t.Error("no head escalated a packet it lost with its leaves")
	}
	if aggs == 0 {
		t.Error("heads sent no AGG_UPDATEs")
	}
	t.Logf("hier: feedback=%d answered=%d suppressed=%d escalated=%d aggs=%d maxJoined=%d events=%d",
		hier.SenderFeedback, answered, suppressed, escalated, aggs, hier.Sender().M.MaxJoined(), hier.Engine.Fired())

	// Baseline: same tree, flat reporting.
	flat, fres, flatHash := hierarchyTransfer(t, true, heads, leaves, size, 11)
	if !fres.Completed {
		t.Fatal("flat transfer did not complete")
	}
	for _, nd := range flat.Receivers() {
		if nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("flat node %d delivered %d bytes (%d bad), want %d exact",
				nd.id, nd.Received, nd.BadBytes, size)
		}
	}
	t.Logf("flat: feedback=%d maxJoined=%d events=%d", flat.SenderFeedback, flat.Sender().M.MaxJoined(), flat.Engine.Fired())
	if hier.SenderFeedback == 0 {
		t.Fatal("hierarchical run recorded no sender feedback at all")
	}
	if ratio := float64(flat.SenderFeedback) / float64(hier.SenderFeedback); ratio < 10 {
		t.Errorf("sender feedback reduced only %.1fx (flat %d, hier %d), want >= 10x",
			ratio, flat.SenderFeedback, hier.SenderFeedback)
	}
	pinned("hierarchical", hierHash, 67322, 0x36d467f87b34dab6)
	pinned("flat", flatHash, 112320, 0xe0681bbf11afb885)
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
	for _, nd := range hier.Receivers() {
		if nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("node %d delivered %d bytes (%d bad), want %d exact",
				nd.id, nd.Received, nd.BadBytes, size)
		}
	}
	if mj := hier.Sender().M.MaxJoined(); mj > heads+2 {
		t.Errorf("sender tracked %d members, want <= %d", mj, heads+2)
	}
}
