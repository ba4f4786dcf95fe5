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
	id   packet.NodeID
	head bool
	tree int // subtree index; head i owns the leaves with tree == i

	// rcfg is the machine's construction config, kept so a restart can
	// rebuild it cold (with JoinInProgress set).
	rcfg receiver.Config
}

// ID returns the node's simulated unicast address.
func (nd *hNode) ID() packet.NodeID { return nd.id }

// IsHead reports whether the node was built as a repair head.
func (nd *hNode) IsHead() bool { return nd.head }

// Hierarchy owns the two-level simulation.
type Hierarchy struct {
	Engine *sim.Engine
	cfg    HierarchyConfig

	snd feeder

	nodes    []*hNode // heads first (index 0..Heads-1), then leaves
	finished int
	// base is the size of the constructed topology; nodes appended later
	// by AddLeaf live past it (see eachLeaf).
	base int
	// crashedUnfinished counts nodes that are down and had not finished;
	// done() excludes them, so a run can complete around a dead host.
	crashedUnfinished int

	faults *faultState
	seams

	// stream translates a mid-stream joiner's anchor into a byte offset.
	stream stream

	headLoss    *sim.RNG
	subtreeLoss *sim.RNG
	leafLoss    *sim.RNG

	// SenderFeedback counts feedback packets delivered to the sender —
	// the quantity the repair tier exists to collapse.
	SenderFeedback int64
	// Drops counts simulated multicast losses.
	Drops int64

	// readBuf is shared across drains; the engine is single-threaded.
	readBuf []byte
}

// NewHierarchy builds the sender, heads and leaves. Receiver IDs are
// 1-based indexes into the node slice, heads first, so head i (0-based)
// has NodeID i+1 and its leaves follow all heads.
func NewHierarchy(cfg HierarchyConfig, scfg sender.Config) *Hierarchy {
	if cfg.Heads <= 0 {
		panic("netsim: hierarchy needs heads")
	}
	m := sender.New(scfg)
	h := &Hierarchy{
		Engine:  &sim.Engine{},
		cfg:     cfg,
		snd:     feeder{M: m, Source: app.NewMemorySource(cfg.Size)},
		stream:  streamOf(m),
		readBuf: make([]byte, 64<<10),
	}
	rng := sim.NewRNG(cfg.Seed)
	h.headLoss = rng.Stream(1)
	h.subtreeLoss = rng.Stream(2)
	h.leafLoss = rng.Stream(3)
	// Derived only when a plan exists: Stream consumes parent RNG state,
	// and fault-free runs must draw identically to earlier builds.
	if cfg.Faults != nil && len(cfg.Faults.Events) > 0 {
		h.faults = newFaultState(cfg.Faults, rng.Stream(4))
	}

	total := cfg.Heads * (1 + cfg.LeavesPerHead)
	h.nodes = make([]*hNode, 0, total)
	for i := 0; i < cfg.Heads; i++ {
		id := packet.NodeID(i + 1)
		rcfg := receiver.Config{LocalAddr: id, RcvBuf: cfg.Buf, Mode: receiver.HRMC, FECGroupSize: cfg.FecK}
		if !cfg.Flat {
			rcfg.Head = &repair.Config{MemberTimeout: cfg.HeadMemberTimeout}
		}
		h.nodes = append(h.nodes, &hNode{rx: rx{M: receiver.New(rcfg)}, id: id, head: true, tree: i, rcfg: rcfg})
	}
	for i := 0; i < cfg.Heads; i++ {
		for j := 0; j < cfg.LeavesPerHead; j++ {
			id := packet.NodeID(len(h.nodes) + 1)
			rcfg := h.leafConfig(id, i)
			h.nodes = append(h.nodes, &hNode{rx: rx{M: receiver.New(rcfg)}, id: id, tree: i, rcfg: rcfg})
		}
	}
	h.base = len(h.nodes)
	if h.faults != nil {
		h.faults.onCrash = h.onCrash
		h.faults.onRestart = h.onRestart
	}
	return h
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
	id := packet.NodeID(len(h.nodes) + 1)
	rcfg := h.leafConfig(id, tree)
	rcfg.JoinInProgress = true
	nd := &hNode{rx: rx{M: receiver.New(rcfg), pendingRebase: true}, id: id, tree: tree, rcfg: rcfg}
	h.nodes = append(h.nodes, nd)
	return nd
}

// onCrash marks a node dead. Its machine keeps its state (useless — a
// restart rebuilds cold) but stops being ticked or delivered to.
func (h *Hierarchy) onCrash(node packet.NodeID) {
	idx := int(node) - 1
	if idx < 0 || idx >= len(h.nodes) {
		return
	}
	nd := h.nodes[idx]
	if nd.crashed {
		return
	}
	nd.crashed = true
	if !nd.Finished {
		h.crashedUnfinished++
	}
}

// onRestart revives a crashed node with a cold machine: empty windows,
// no retained repair state, JoinInProgress so it anchors mid-stream.
// Delivery accounting restarts from the anchor.
func (h *Hierarchy) onRestart(node packet.NodeID) {
	idx := int(node) - 1
	if idx < 0 || idx >= len(h.nodes) {
		return
	}
	nd := h.nodes[idx]
	if !nd.crashed {
		return
	}
	nd.crashed = false
	if !nd.Finished {
		h.crashedUnfinished--
	} else {
		// Restarting a finished node re-opens its delivery: it must
		// finish again from its new anchor.
		h.finished--
	}
	rcfg := nd.rcfg
	rcfg.JoinInProgress = true
	nd.restart(receiver.New(rcfg))
}

// Sender returns the sender machine (for assertions).
func (h *Hierarchy) Sender() *sender.Sender { return h.snd.M }

// FaultDrops returns how many packets the fault plane's loss bursts
// destroyed (zero without a plan).
func (h *Hierarchy) FaultDrops() int64 {
	if h.faults == nil {
		return 0
	}
	return h.faults.Drops
}

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

// tick is the per-jiffy driver: one event advances the sender and every
// receiver, which keeps the event queue small at 10k+ nodes.
func (h *Hierarchy) tick() {
	now := h.Engine.Now()
	h.snd.feed(now)
	if h.due(now, h.snd.M.NextWake) {
		h.snd.M.Tick(now)
	}
	h.flushSender(now)
	for _, nd := range h.nodes {
		if nd.crashed {
			continue
		}
		if h.due(now, nd.M.NextWake) {
			nd.M.Advance(now)
		}
		h.drainReads(nd, now)
		h.flushNode(nd, now)
	}
	if !h.done() {
		h.Engine.At(now+jiffy, h.tick)
	}
}

// flushSender routes the sender's outgoing packets: multicast fans out
// to heads at +Delay and to leaves at +Delay+LeafDelay with the loss
// model applied; unicast goes to its node with the path delay.
func (h *Hierarchy) flushSender(now sim.Time) {
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
						h.Drops++
						continue
					}
					h.deliverToNode(nd, 0, pkt)
				}
			})
			h.Engine.At(now+h.cfg.Delay+h.cfg.LeafDelay, func() {
				for tree := 0; tree < h.cfg.Heads; tree++ {
					if h.subtreeLoss.Bool(h.cfg.SubtreeLoss) {
						h.Drops += int64(h.cfg.LeavesPerHead)
						continue
					}
					h.eachLeaf(tree, func(nd *hNode) {
						if h.leafLoss.Bool(h.cfg.LeafLoss) {
							h.Drops++
							return
						}
						h.deliverToNode(nd, 0, pkt)
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
		h.Engine.At(now+delay, func() { h.deliverToNode(dst, 0, pkt) })
	}
}

// flushNode routes one receiver's output: feedback to the sender,
// repair multicast into the node's own subtree, and repair-plane
// unicast to its explicit destination.
func (h *Hierarchy) flushNode(nd *hNode, now sim.Time) {
	delayUp := h.cfg.Delay
	if !nd.head {
		delayUp += h.cfg.LeafDelay
	}
	for _, p := range nd.M.Outgoing() {
		h.emit(nd.id, p, false, 0)
		pkt := p
		from := nd.id
		h.Engine.At(now+delayUp, func() {
			t := h.Engine.Now()
			if h.faults.Blocked(t, from, 0) {
				return
			}
			h.SenderFeedback++
			h.snd.M.HandlePacket(t, from, pkt)
			h.flushSender(t)
		})
	}
	for _, p := range nd.M.OutgoingMulticast() {
		// Subtree-scoped multicast: a head's repairs and declines reach
		// only its own subtree — that scoping is the whole point of the
		// tier. A failed-over leaf's multicast (a HEAD_DECLINE relayed
		// before failover) also stays within its subtree.
		h.emit(nd.id, p, true, 0)
		pkt := p
		tree := nd.tree
		self := nd
		h.Engine.At(now+h.cfg.LeafDelay, func() {
			h.eachLeaf(tree, func(leaf *hNode) {
				if leaf != self {
					h.deliverToNode(leaf, self.id, pkt)
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
		pkt := a.Pkt
		from := nd.id
		h.Engine.At(now+h.cfg.LeafDelay, func() { h.deliverToNode(dst, from, pkt) })
	}
}

func (h *Hierarchy) deliverToNode(nd *hNode, from packet.NodeID, p *packet.Packet) {
	t := h.Engine.Now()
	if nd.crashed || h.faults.Blocked(t, from, nd.id) {
		return
	}
	nd.M.HandleFrom(t, from, p)
	h.drainReads(nd, t)
	h.flushNode(nd, t)
}

func (h *Hierarchy) drainReads(nd *hNode, now sim.Time) {
	if nd.drain(now, h.readBuf, nil, h.stream) {
		h.finished++
	}
}

func (h *Hierarchy) done() bool {
	// Crashed nodes are excluded: the run completes around a dead host.
	return h.snd.M.Done() && h.finished+h.crashedUnfinished == len(h.nodes)
}

// Run drives the simulation until the transfer completes or limit
// elapses, returning a Result over all nodes.
func (h *Hierarchy) Run(limit sim.Time) Result {
	h.faults.install(h.Engine, h.cfg.Faults)
	h.Engine.At(jiffy, h.tick)
	for h.Engine.Now() < limit && !h.done() {
		if !h.Engine.Step() {
			break
		}
	}
	res := Result{Completed: true, NICDrops: h.Drops}
	for _, nd := range h.nodes {
		res.add(&nd.rx)
	}
	return res
}
