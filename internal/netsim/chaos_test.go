// Chaos scenarios: the fault plane driving the failover machinery
// end-to-end. These are the acceptance tests for repair-head failover —
// a head dying under a 1k+ leaf population mid-flow, a head restarting
// with a cold retained window, and a flash crowd arriving through a
// partition. The TestChaos* names are what the CI chaos job runs under
// -race.
package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/repair"
	"repro/internal/sender"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// patient leaves keep asking their head however long it is silent:
// neither failover detector runs.
func patient(c *receiver.Config) { c.HeadSilenceTimeout, c.HeadNakRetryBudget = -1, -1 }

// TestChaosFailoverHeadCrash is the headline scenario: 10 repair heads
// front 1,010 leaves, and one head crashes mid-flow. Its leaves must
// detect the silence, fail over to flat mode, re-home their recovery to
// the sender, and the whole run must still complete bit-exact with no
// stalled receiver. The sender, for its part, must notice the head's
// AGG_UPDATE silence and evict the dead entry so release is not gated
// on a ghost forever.
func TestChaosFailoverHeadCrash(t *testing.T) {
	const (
		heads  = 10
		leaves = 101 // per head: 1,010 leaves — the 1k+ acceptance scale
		size   = int64(512 << 10)
	)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate100Mbps
	plan := (&FaultPlan{}).CrashAt(600*sim.Millisecond, 1)
	h := Tree{
		Heads:  heads,
		Leaves: leaves,
		Size:   size,
		Buf:    256 << 10,
		Seed:   7,
		Faults: plan,
		Group:  scaleGroup,
		// Fast leaf-side detection so failover happens well inside the
		// sender's release grace window.
		Leaf: func(c *receiver.Config) { c.HeadSilenceTimeout, c.HeadNakRetryBudget = sim.Second, 4 },
	}.Build(sender.Config{
		SndBuf:             256 << 10,
		Mode:               sender.HRMC,
		Rate:               rcfg,
		HeadSilenceTimeout: 3 * sim.Second,
		FailoverGrace:      2 * sim.Second,
	})
	res := h.Run(60 * sim.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete around the crashed head")
	}
	if res.NICDrops+res.RouterDrops == 0 {
		t.Fatal("loss model produced no drops; test is vacuous")
	}
	var failovers int64
	for _, nd := range h.Receivers() {
		if nd.Crashed() {
			continue
		}
		if nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("node %d delivered %d bytes (%d bad), want %d exact",
				nd.ID(), nd.Received, nd.BadBytes, size)
		}
		failovers += nd.M.Stats().HeadFailovers
	}
	if failovers == 0 {
		t.Error("no leaf failed over from the crashed head")
	}
	st := h.Sender().M.Stats()
	if st.HeadsEvicted < 1 {
		t.Errorf("HeadsEvicted = %d, want >= 1 (silent head)", st.HeadsEvicted)
	}
	t.Logf("failovers=%d headsEvicted=%d orphaned=%d maxJoined=%d nakErrs=%d",
		failovers, st.HeadsEvicted, st.OrphanedLeaves, h.Sender().M.MaxJoined(), st.NakErrsSent)
}

// TestChaosHeadRestartColdWindow exercises escalate-or-decline against
// a restarted head's cold retained window. One leaf (the victim) is
// silenced toward its head, loses a burst mid-flow once the head has
// forgotten it (so its frozen frontier stops gating release), and the
// head then crashes and restarts cold, re-anchoring above the victim's
// hole. By the time the victim can reach the head again, the sender
// has released the lost range and the head's retained window starts
// past it. The victim's HEAD_NAK must draw an explicit refusal — head
// escalation, sender NAK_ERR, multicast HEAD_DECLINE, direct retry,
// final NAK_ERR — never silence. The timeline is fully deterministic:
// every stochastic loss rate is zero.
func TestChaosHeadRestartColdWindow(t *testing.T) {
	const (
		size   = int64(256 << 10)
		head   = packet.NodeID(1)
		victim = packet.NodeID(2)
	)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate100Mbps
	plan := (&FaultPlan{}).
		// Silence the victim toward its head: its UPDATEs and HEAD_NAKs
		// vanish, so after MemberTimeout the head's aggregate forgets it
		// and the sender's release no longer waits for it.
		PartitionAt(500*sim.Millisecond, victim, head).
		// Once forgotten, the victim loses a burst of flowing data. It
		// still hears the stream resume afterwards, so the hole is
		// visible — but every HEAD_NAK dies against the partition.
		BurstLossAt(1550*sim.Millisecond, 1800*sim.Millisecond, victim, 1.0).
		// The head crashes and restarts with a cold retained window,
		// re-anchoring at the release frontier — above the victim's hole.
		CrashAt(2000*sim.Millisecond, head).
		RestartAt(3000*sim.Millisecond, head).
		// Long after release, the victim reaches the head again and asks.
		HealAt(15*sim.Second, victim, head)
	h := Tree{
		Heads:  1,
		Leaves: 4,
		Size:   size,
		Buf:    256 << 10,
		Seed:   21,
		Faults: plan,
		Group:  Group{Delay: 10 * sim.Millisecond},
		// The victim must keep asking its head forever — failover would
		// sidestep the decline path this test is about.
		Leaf: patient,
		// Forget the silenced victim quickly so release moves past its
		// hole while the head is still alive.
		Head: repair.Config{MemberTimeout: sim.Second},
	}.Build(sender.Config{
		SndBuf: 64 << 10,
		Mode:   sender.HRMC,
		Rate:   rcfg,
		MSS:    1024, // divides the 64 KiB feed: exact restart re-anchoring
		// The head comes back on its own; never evict it.
		HeadSilenceTimeout: -1,
	})
	// The victim can never finish (its hole is authoritatively dead), so
	// the run ends at the limit; assertions look at per-node state.
	h.Run(25 * sim.Second)

	nodes := h.Receivers()
	hd := nodes[0]
	if !hd.Finished || hd.BadBytes != 0 {
		t.Fatalf("restarted head: finished=%v bad=%d, want re-finished clean",
			hd.Finished, hd.BadBytes)
	}
	rb, ok := hd.M.RebasedAt()
	if !ok {
		t.Fatal("restarted head never anchored mid-stream")
	}
	if want := size - int64(seqspace.Diff(rb, 0))*1024; hd.Received != want {
		t.Errorf("restarted head delivered %d bytes, want %d from anchor %d",
			hd.Received, want, rb)
	}
	for _, nd := range nodes[2:] { // the healthy leaves
		if !nd.Finished || nd.Received != size || nd.BadBytes != 0 {
			t.Fatalf("healthy leaf %d: finished=%v got %d bytes (%d bad), want %d exact",
				nd.ID(), nd.Finished, nd.Received, nd.BadBytes, size)
		}
	}
	v := nodes[1]
	if v.Finished {
		t.Error("victim finished despite an authoritatively dead hole")
	}
	vst := v.M.Stats()
	if vst.HeadDeclinesHeard < 1 {
		t.Errorf("victim HeadDeclinesHeard = %d, want >= 1", vst.HeadDeclinesHeard)
	}
	if vst.NakErrsHeard < 1 {
		t.Errorf("victim NakErrsHeard = %d, want >= 1", vst.NakErrsHeard)
	}
	if vst.UnrecoverableHoles < 1 {
		t.Errorf("victim UnrecoverableHoles = %d, want >= 1", vst.UnrecoverableHoles)
	}
	hst := hd.M.Stats()
	if hst.HeadNaksEscalated < 1 {
		t.Errorf("head HeadNaksEscalated = %d, want >= 1", hst.HeadNaksEscalated)
	}
	if hst.HeadDeclinesSent < 1 {
		t.Errorf("head HeadDeclinesSent = %d, want >= 1", hst.HeadDeclinesSent)
	}
	if st := h.Sender().M.Stats(); st.NakErrsSent < 1 {
		t.Errorf("sender NakErrsSent = %d, want >= 1", st.NakErrsSent)
	}
}

// TestChaosFlashCrowdPartition drives a flash crowd of mid-stream
// joiners into a subtree while another head is partitioned from the
// sender and a loss burst chews on a third. The crowd must stay behind
// its head (O(heads) sender state), nobody may fail over (the faults
// heal), and every joiner must deliver bit-exact from its anchor.
func TestChaosFlashCrowdPartition(t *testing.T) {
	const (
		heads = 3
		perHd = 10
		size  = int64(512 << 10)
		crowd = 20
	)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate100Mbps
	plan := (&FaultPlan{}).
		PartitionAt(400*sim.Millisecond, 0, 3).
		BurstLossAt(600*sim.Millisecond, 900*sim.Millisecond, 2, 0.5).
		HealAt(1800*sim.Millisecond, 0, 3)
	tree := Tree{
		Heads:  heads,
		Leaves: perHd,
		Size:   size,
		Buf:    256 << 10,
		Seed:   9,
		Faults: plan,
		Group:  Group{Delay: 10 * sim.Millisecond},
		// Patient leaves: the head is only unreachable, not dead.
		Leaf: patient,
	}
	h := tree.Build(sender.Config{
		SndBuf:             128 << 10,
		Mode:               sender.HRMC,
		Rate:               rcfg,
		MSS:                1024,
		HeadSilenceTimeout: -1,
	})
	var lateNodes []*ReceiverHost
	for i := 0; i < crowd; i++ {
		at := 500*sim.Millisecond + sim.Time(i)*10*sim.Millisecond
		h.Engine.At(at, func() {
			lateNodes = append(lateNodes, tree.AddLeaf(h, 1))
		})
	}
	res := h.Run(60 * sim.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete")
	}
	if h.FaultDrops() == 0 {
		t.Fatal("loss burst dropped nothing; test is vacuous")
	}
	var failovers int64
	for _, nd := range h.Receivers() {
		failovers += nd.M.Stats().HeadFailovers
		if nd.BadBytes != 0 {
			t.Fatalf("node %d saw %d corrupted bytes", nd.ID(), nd.BadBytes)
		}
	}
	if failovers != 0 {
		t.Errorf("failovers = %d, want 0: partition healed, head never died", failovers)
	}
	for _, nd := range h.Receivers()[:heads*(1+perHd)] {
		if nd.Received != size {
			t.Fatalf("node %d delivered %d bytes, want %d", nd.ID(), nd.Received, size)
		}
	}
	if len(lateNodes) != crowd {
		t.Fatalf("flash crowd: %d joined, want %d", len(lateNodes), crowd)
	}
	for _, nd := range lateNodes {
		rb, ok := nd.M.RebasedAt()
		if !ok {
			t.Fatalf("late leaf %d never anchored", nd.ID())
		}
		want := size - int64(seqspace.Diff(rb, 0))*1024
		if !nd.Finished || nd.Received != want || nd.Received <= 0 {
			t.Fatalf("late leaf %d: finished=%v got %d bytes, want %d from anchor %d",
				nd.ID(), nd.Finished, nd.Received, want, rb)
		}
	}
	st := h.Sender().M.Stats()
	if st.HeadsEvicted != 0 {
		t.Errorf("HeadsEvicted = %d, want 0: the partition healed in time", st.HeadsEvicted)
	}
	if mj := h.Sender().M.MaxJoined(); mj > heads+2 {
		t.Errorf("sender tracked %d members, want <= heads+2 = %d: the crowd must stay behind heads",
			mj, heads+2)
	}
}
