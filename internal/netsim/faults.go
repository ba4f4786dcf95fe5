// Fault injection for both network models: a FaultPlan is a declarative
// schedule of node crashes and restarts, pairwise link partitions, and
// timed loss bursts. The driver both models share consults it on every
// delivery, so a fault expressed once applies uniformly to multicast
// fan-out, repair-plane unicast, and feedback paths alike. This is the
// substrate for the chaos scenarios: a repair head dying mid-flow, a
// partitioned leaf rejoining, a flash crowd arriving through a lossy
// window.
package netsim

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// FaultKind classifies one scheduled fault.
type FaultKind int

const (
	// FaultCrash silences a receiver node: it stops processing,
	// emitting, and receiving, and packets it sent that arrive while it
	// is down are lost with it.
	FaultCrash FaultKind = iota
	// FaultRestart revives a crashed node, with a cold machine from its
	// Rebuild (empty windows, no retained repair data; every Hierarchy
	// node has one), which is what makes head-restart scenarios
	// interesting. A restart of a live node does nothing.
	FaultRestart
	// FaultPartition cuts the pair (A, B) in both directions until a
	// matching FaultHeal. The sender is NodeID 0.
	FaultPartition
	// FaultHeal removes the (A, B) cut.
	FaultHeal
	// FaultBurstLoss drops packets touching Node (or every packet when
	// Node is 0) with probability Loss during [At, Until).
	FaultBurstLoss
)

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	At   sim.Time
	Kind FaultKind
	// Node is the crash/restart target, or the burst's focus (0 = the
	// whole network).
	Node packet.NodeID
	// A, B are the partition endpoints (0 = the sender).
	A, B packet.NodeID
	// Until ends a loss burst.
	Until sim.Time
	// Loss is the burst drop probability.
	Loss float64
}

// FaultPlan is a buildable schedule of faults. The zero value is an
// empty plan; the builder methods return the plan for chaining.
type FaultPlan struct {
	Events []FaultEvent
}

// CrashAt schedules a node crash.
func (p *FaultPlan) CrashAt(at sim.Time, node packet.NodeID) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, Kind: FaultCrash, Node: node})
	return p
}

// RestartAt schedules a restart of a crashed node.
func (p *FaultPlan) RestartAt(at sim.Time, node packet.NodeID) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, Kind: FaultRestart, Node: node})
	return p
}

// PartitionAt cuts the pair (a, b) in both directions; 0 is the sender.
func (p *FaultPlan) PartitionAt(at sim.Time, a, b packet.NodeID) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, Kind: FaultPartition, A: a, B: b})
	return p
}

// HealAt removes the (a, b) cut.
func (p *FaultPlan) HealAt(at sim.Time, a, b packet.NodeID) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, Kind: FaultHeal, A: a, B: b})
	return p
}

// BurstLossAt drops packets touching node (0 = all packets) with
// probability loss during [at, until).
func (p *FaultPlan) BurstLossAt(at, until sim.Time, node packet.NodeID, loss float64) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, Kind: FaultBurstLoss, Node: node, Until: until, Loss: loss})
	return p
}

// cutKey normalizes a partition pair so (a,b) and (b,a) share one entry.
func cutKey(a, b packet.NodeID) [2]packet.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]packet.NodeID{a, b}
}

// faultState is the live fault machinery one model instance owns: the
// plan's discrete events, its cuts and its bursts. A host's crash is
// the driver's record, not this one. A fault-free run has nil state and
// pays a single pointer check.
type faultState struct {
	events []FaultEvent
	cuts   map[[2]packet.NodeID]bool
	bursts []FaultEvent
	rng    *sim.RNG

	// Drops counts packets the fault plane destroyed (burst loss only;
	// crash and partition drops are deterministic and uncounted).
	Drops int64
}

// newFaultState builds the live state for a plan, its loss stream
// derived from parent under label. A nil or empty plan yields nil state
// and leaves parent untouched: Stream consumes parent state, and a
// fault-free run must draw as if fault support did not exist.
func newFaultState(plan *FaultPlan, parent *sim.RNG, label uint64) *faultState {
	if plan == nil || len(plan.Events) == 0 {
		return nil
	}
	f := &faultState{events: plan.Events, cuts: make(map[[2]packet.NodeID]bool), rng: parent.Stream(label)}
	for _, e := range plan.Events {
		if e.Kind == FaultBurstLoss {
			f.bursts = append(f.bursts, e)
		}
	}
	return f
}

// install schedules the plan's discrete events on the engine: crash and
// restart through the driver's hooks, partition and heal here. Bursts
// need no events: Blocked consults their time windows directly.
func (f *faultState) install(eng *sim.Engine, crash, restart func(packet.NodeID)) {
	if f == nil {
		return
	}
	for _, e := range f.events {
		switch e.Kind {
		case FaultCrash:
			eng.At(e.At, func() { crash(e.Node) })
		case FaultRestart:
			eng.At(e.At, func() { restart(e.Node) })
		case FaultPartition:
			eng.At(e.At, func() { f.cuts[cutKey(e.A, e.B)] = true })
		case FaultHeal:
			eng.At(e.At, func() { delete(f.cuts, cutKey(e.A, e.B)) })
		}
	}
}

// Blocked decides whether the plan stops one packet traveling between a
// and b (either direction; 0 is the sender) at time now: the pair is
// partitioned, or an active loss burst touching an endpoint draws
// against it.
func (f *faultState) Blocked(now sim.Time, a, b packet.NodeID) bool {
	if len(f.cuts) > 0 && f.cuts[cutKey(a, b)] {
		return true
	}
	for _, e := range f.bursts {
		if now < e.At || now >= e.Until {
			continue
		}
		if e.Node != 0 && e.Node != a && e.Node != b {
			continue
		}
		if f.rng.Bool(e.Loss) {
			f.Drops++
			return true
		}
	}
	return false
}
