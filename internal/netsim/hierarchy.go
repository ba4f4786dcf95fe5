// Two-level scale model for the hierarchical repair tier: one sender,
// a row of repair heads, and a large leaf population behind them. The
// full Network model charges per-packet CPU and NIC queueing on every
// host, which is the right fidelity for the paper's Section 5.2 figures
// but makes a 10,000-receiver run intractable; Hierarchy trades the
// host model for fixed one-way delays and per-subtree correlated loss,
// which is exactly what the repair tier's scaling claims are about:
// feedback volume at the sender, suppression at the heads, and
// bit-exact delivery at every leaf.
package netsim

import (
	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/repair"
	"repro/internal/sender"
	"repro/internal/sim"
)

// HierarchyConfig parametrizes the two-level model.
type HierarchyConfig struct {
	// Heads and LeavesPerHead shape the tree: Heads repair heads, each
	// answering for LeavesPerHead downstream leaves.
	Heads         int
	LeavesPerHead int
	// Flat disables the repair tier: every receiver (heads and leaves
	// alike become plain receivers) reports straight to the sender. The
	// baseline for the feedback-reduction comparison.
	Flat bool

	// Size is the stream length in bytes; Buf the per-socket buffer.
	Size int64
	Buf  int

	// Seed drives every loss stream.
	Seed uint64

	// Delay is the sender↔head one-way delay; LeafDelay the head↔leaf
	// one-way delay. A sender↔leaf path is Delay+LeafDelay.
	Delay     sim.Time
	LeafDelay sim.Time

	// HeadLoss is the per-head loss probability on sender multicast.
	// SubtreeLoss is drawn once per subtree per multicast packet and
	// drops it for every leaf of that subtree at once — the correlated
	// tail-link loss that makes NAK suppression worth having.
	// LeafLoss is the per-leaf uncorrelated residue.
	HeadLoss    float64
	SubtreeLoss float64
	LeafLoss    float64

	// Faults schedules crashes, restarts, partitions, and loss bursts
	// (nil = fault-free). Restarted nodes come back with cold machines
	// and re-anchor mid-stream (receiver.Config.JoinInProgress).
	Faults *FaultPlan
	// ReadoptHead propagates to every leaf: a failed-over leaf
	// re-attaches to its head when the head's traffic reappears.
	ReadoptHead bool
	// LeafHeadSilence and LeafNakBudget tune the leaves' failover
	// detection (receiver.Config.HeadSilenceTimeout and
	// HeadNakRetryBudget): zero keeps the receiver defaults, negative
	// disables that detector.
	LeafHeadSilence sim.Time
	LeafNakBudget   int
	// HeadMemberTimeout tunes how long a head keeps a silent leaf in
	// its aggregate (repair.Config.MemberTimeout); zero keeps the
	// repair default. Chaos scenarios shorten it so a partitioned
	// leaf's frozen frontier stops gating the sender's release.
	HeadMemberTimeout sim.Time

	// FecK enables proactive parity on every node (heads and leaves):
	// receivers recover singly-lost groups locally before arming NAK
	// timers. Must match the sender's Config.FECGroupSize.
	FecK int
}

// hNode is one simulated receiver host in the hierarchy.
type hNode struct {
	rx
	head bool
	tree int // subtree index; head i owns the leaves with tree == i
}

// IsHead reports whether the node was built as a repair head.
func (nd *hNode) IsHead() bool { return nd.head }

// Hierarchy is the two-level model on the shared driver. Its nodes are
// heads first (index 0..Heads-1), then leaves; every loss its link
// model draws counts in NICDrops.
type Hierarchy struct {
	driver[*hNode]
	cfg HierarchyConfig

	// base is the size of the constructed topology; nodes appended later
	// by AddLeaf live past it (see eachLeaf).
	base int

	headLoss    *sim.RNG
	subtreeLoss *sim.RNG
	leafLoss    *sim.RNG
}

// NewHierarchy builds the sender, heads and leaves. Receiver IDs are
// 1-based indexes into the node slice, heads first, so head i (0-based)
// has NodeID i+1 and its leaves follow all heads.
func NewHierarchy(cfg HierarchyConfig, scfg sender.Config) *Hierarchy {
	if cfg.Heads <= 0 {
		panic("netsim: hierarchy needs heads")
	}
	m := sender.New(scfg)
	h := &Hierarchy{cfg: cfg}
	rng := sim.NewRNG(cfg.Seed)
	h.headLoss, h.subtreeLoss, h.leafLoss = rng.Stream(1), rng.Stream(2), rng.Stream(3)
	h.driver = newDriver[*hNode](h, newFaultState(cfg.Faults, rng, 4))
	h.snd, h.stream = &feeder{M: m, Source: app.NewMemorySource(cfg.Size)}, streamOf(m)

	h.nodes = make([]*hNode, 0, cfg.Heads*(1+cfg.LeavesPerHead))
	for i := 0; i < cfg.Heads; i++ {
		rcfg := receiver.Config{LocalAddr: packet.NodeID(i + 1), RcvBuf: cfg.Buf, Mode: receiver.HRMC, FECGroupSize: cfg.FecK}
		if !cfg.Flat {
			rcfg.Head = &repair.Config{MemberTimeout: cfg.HeadMemberTimeout}
		}
		h.nodes = append(h.nodes, newNode(rcfg, true, i))
	}
	for i := 0; i < cfg.Heads; i++ {
		for j := 0; j < cfg.LeavesPerHead; j++ {
			h.nodes = append(h.nodes, newNode(h.leafConfig(packet.NodeID(len(h.nodes)+1), i), false, i))
		}
	}
	h.base = len(h.nodes)
	return h
}

// newNode builds one host. A restart rebuilds its machine cold from the
// same config, anchoring mid-stream (JoinInProgress): empty windows, no
// retained repair state.
func newNode(rcfg receiver.Config, head bool, tree int) *hNode {
	nd := &hNode{rx: rx{id: rcfg.LocalAddr, M: receiver.New(rcfg)}, head: head, tree: tree}
	rcfg.JoinInProgress = true
	nd.Rebuild = func() *receiver.Receiver { return receiver.New(rcfg) }
	return nd
}

// leafConfig builds one leaf's receiver config, applying the model-wide
// failover knobs.
func (h *Hierarchy) leafConfig(id packet.NodeID, tree int) receiver.Config {
	rcfg := receiver.Config{LocalAddr: id, RcvBuf: h.cfg.Buf, Mode: receiver.HRMC, FECGroupSize: h.cfg.FecK}
	if !h.cfg.Flat {
		rcfg.RepairHead = packet.NodeID(tree + 1)
		rcfg.ReadoptHead = h.cfg.ReadoptHead
		rcfg.HeadSilenceTimeout = h.cfg.LeafHeadSilence
		rcfg.HeadNakRetryBudget = h.cfg.LeafNakBudget
	}
	return rcfg
}

// AddLeaf joins a fresh leaf to subtree tree mid-run (the flash-crowd
// scenario): the new machine anchors to the in-progress stream
// (JoinInProgress) and its pattern verification starts at the anchor.
// Call from a scheduled event, not concurrently with the engine.
func (h *Hierarchy) AddLeaf(tree int) *hNode {
	rcfg := h.leafConfig(packet.NodeID(len(h.nodes)+1), tree)
	rcfg.JoinInProgress = true
	nd := newNode(rcfg, false, tree)
	nd.pendingRebase = true
	h.nodes = append(h.nodes, nd)
	return nd
}

// Sender returns the sender machine (for assertions).
func (h *Hierarchy) Sender() *sender.Sender { return h.snd.M }

// Nodes returns all receiver nodes, heads first.
func (h *Hierarchy) Nodes() []*hNode { return h.nodes }

// eachLeaf visits the leaf nodes of subtree tree: the constructed block
// plus any leaves AddLeaf appended mid-run.
func (h *Hierarchy) eachLeaf(tree int, fn func(*hNode)) {
	start := h.cfg.Heads + tree*h.cfg.LeavesPerHead
	for _, nd := range h.nodes[start : start+h.cfg.LeavesPerHead] {
		fn(nd)
	}
	for _, nd := range h.nodes[h.base:] {
		if nd.tree == tree && !nd.head {
			fn(nd)
		}
	}
}

// start arms one tick event for the sender and every node, which keeps
// the event queue small at 10k+ nodes.
func (h *Hierarchy) start() {
	h.every(jiffy, func(now sim.Time) bool {
		h.stepSender(now)
		for _, nd := range h.nodes {
			h.step(nd, now)
		}
		return !h.done()
	})
}

// cpu charges nothing: the model has no host costs.
func (h *Hierarchy) cpu(_ packet.NodeID, now sim.Time, _ int) sim.Time { return now }

// routeSender routes the sender's outgoing packets: multicast fans out
// to heads at +Delay and to leaves at +Delay+LeafDelay with the loss
// model applied; unicast goes to its node with the path delay.
func (h *Hierarchy) routeSender(now sim.Time) {
	for _, o := range h.snd.M.Outgoing() {
		h.emit(0, o.Pkt, o.Dest.Multicast, o.Dest.Node)
		if o.Dest.Multicast {
			// One clone shared by every receiver: nothing in this model
			// recycles packets (no pool ownership), windows only read the
			// stored payload, and repairs are rebuilt as fresh copies, so
			// aliasing one packet across 10k receive windows is safe and
			// is what makes the scale affordable.
			pkt := o.Pkt.Clone()
			h.Engine.At(now+h.cfg.Delay, func() {
				for _, nd := range h.nodes[:h.cfg.Heads] {
					if h.headLoss.Bool(h.cfg.HeadLoss) {
						h.NICDrops++
						continue
					}
					h.deliver(nd, 0, pkt)
				}
			})
			h.Engine.At(now+h.cfg.Delay+h.cfg.LeafDelay, func() {
				for tree := 0; tree < h.cfg.Heads; tree++ {
					if h.subtreeLoss.Bool(h.cfg.SubtreeLoss) {
						h.NICDrops += int64(h.cfg.LeavesPerHead)
						continue
					}
					h.eachLeaf(tree, func(nd *hNode) {
						if h.leafLoss.Bool(h.cfg.LeafLoss) {
							h.NICDrops++
							return
						}
						h.deliver(nd, 0, pkt)
					})
				}
			})
			continue
		}
		idx := int(o.Dest.Node) - 1
		if idx < 0 || idx >= len(h.nodes) {
			continue
		}
		dst := h.nodes[idx]
		delay := h.cfg.Delay
		if !dst.head {
			delay += h.cfg.LeafDelay
		}
		pkt := o.Pkt.Clone()
		h.Engine.At(now+delay, func() { h.deliver(dst, 0, pkt) })
	}
}

// route routes one receiver's output: feedback to the sender, repair
// multicast into the node's own subtree, and repair-plane unicast to its
// explicit destination.
func (h *Hierarchy) route(nd *hNode, now sim.Time) {
	delayUp := h.cfg.Delay
	if !nd.head {
		delayUp += h.cfg.LeafDelay
	}
	for _, p := range nd.M.Outgoing() {
		h.emit(nd.id, p, false, 0)
		h.Engine.At(now+delayUp, func() { h.toSender(nd.id, p) })
	}
	for _, p := range nd.M.OutgoingMulticast() {
		// Subtree-scoped multicast: a head's repairs and declines reach
		// only its own subtree — that scoping is the whole point of the
		// tier. A failed-over leaf's multicast (a HEAD_DECLINE relayed
		// before failover) also stays within its subtree.
		h.emit(nd.id, p, true, 0)
		h.Engine.At(now+h.cfg.LeafDelay, func() {
			h.eachLeaf(nd.tree, func(leaf *hNode) {
				if leaf != nd {
					h.deliver(leaf, nd.id, p)
				}
			})
		})
	}
	for _, a := range nd.M.OutgoingAddressed() {
		h.emit(nd.id, a.Pkt, false, a.To)
		idx := int(a.To) - 1
		if idx < 0 || idx >= len(h.nodes) {
			continue
		}
		dst := h.nodes[idx]
		h.Engine.At(now+h.cfg.LeafDelay, func() { h.deliver(dst, nd.id, a.Pkt) })
	}
}
