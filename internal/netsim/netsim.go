// Package netsim is the discrete-event network model of the paper's
// simulation study (Section 5.2): host processes with the measured
// H-RMC processing costs, network-interface processes with finite egress
// queues and uncorrelated loss, and router processes with link-rate
// serialization, characteristic-group delays, multicast duplication and
// correlated loss.
//
// Loss is split 90% correlated (at the group router, shared by all
// receivers of the group) and 10% uncorrelated (at each receiver's
// network interface), following the paper's reading of Yajnik et al.
// that most loss happens on tail links.
package netsim

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
)

// Group is a characteristic receiver group (Figure 14(a)).
type Group struct {
	Name string
	// Delay is the one-way network delay between the sender's site and
	// the group.
	Delay sim.Time
	// Loss is the total packet loss probability for receivers in the
	// group (0.02 = 2%).
	Loss float64
}

// The paper's characteristic groups (Figure 14(a)).
var (
	GroupA = Group{Name: "A", Delay: 2 * sim.Millisecond, Loss: 0.00005}
	GroupB = Group{Name: "B", Delay: 20 * sim.Millisecond, Loss: 0.005}
	GroupC = Group{Name: "C", Delay: 100 * sim.Millisecond, Loss: 0.02}
)

// CorrelatedShare is the fraction of loss applied at the group router.
const CorrelatedShare = 0.9

// Config parametrizes the network and host model.
type Config struct {
	// Seed drives every random stream in the simulation.
	Seed uint64
	// LineRate is the link bandwidth in bytes/second (10 Mbps ⇒ 1.25e6).
	LineRate float64
	// NICQueueBytes bounds each host's egress queue; a burst larger than
	// the queue overflows and the excess packets are dropped, which is
	// the paper's explanation for the NAKs of Figure 13. Zero means
	// unbounded.
	NICQueueBytes int

	// Faults schedules crashes, restarts, partitions, and loss bursts
	// against this network (nil = fault-free). A crashed receiver stops
	// processing; a restart revives it, with a cold machine when the
	// host has a Rebuild hook. The sender (NodeID 0) cannot crash.
	Faults *FaultPlan
}

// The paper's measured host costs.
const (
	// perPacketCPU and perByteCPU are the H-RMC processing cost
	// (10 + 0.025·l) µs; it serializes on the host CPU.
	perPacketCPU = 10 * sim.Microsecond
	perByteCPU   = 25.0 // nanoseconds per payload byte
	// lowerLayerDelay is the lower-layer cost (150 µs), modeled as
	// pipeline latency.
	lowerLayerDelay = 150 * sim.Microsecond
)

// DefaultConfig returns the paper's network on a line of the given rate
// in bytes/second.
func DefaultConfig(lineRate float64, seed uint64) Config {
	return Config{Seed: seed, LineRate: lineRate, NICQueueBytes: 256 << 10}
}

// Rates for convenience.
const (
	Rate10Mbps  = 10e6 / 8
	Rate100Mbps = 100e6 / 8
)

// Network is the paper's host, interface and router model on the
// shared driver: one sender host and any number of receiver hosts
// organized in characteristic groups.
type Network struct {
	driver[*ReceiverHost]
	cfg Config
	rng *sim.RNG

	senderHost *SenderHost
	// Per-group router serialization and loss streams.
	groups map[string]*groupRouter
}

// newHook, when a test sets it, sees every Network New creates —
// including the ones internal/experiments builds for the figures.
var newHook func(*Network)

type groupRouter struct {
	g    Group
	loss *sim.RNG
	lost bool // this multicast packet's correlated draw
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.LineRate <= 0 {
		cfg.LineRate = Rate10Mbps
	}
	n := &Network{cfg: cfg, rng: sim.NewRNG(cfg.Seed), groups: make(map[string]*groupRouter)}
	n.driver = newDriver[*ReceiverHost](n, newFaultState(cfg.Faults, n.rng, 99))
	if newHook != nil {
		newHook(n)
	}
	return n
}

func (n *Network) group(g Group) *groupRouter {
	gr, ok := n.groups[g.Name]
	if !ok {
		gr = &groupRouter{g: g, loss: n.rng.Stream(uint64(len(n.groups)) + 101)}
		n.groups[g.Name] = gr
	}
	return gr
}

// cpuCost returns the host protocol-processing cost for a packet of the
// given payload length: (10 + 0.025·l) µs.
func cpuCost(payloadLen int) sim.Time {
	return perPacketCPU + sim.Time(perByteCPU*float64(payloadLen))
}

// host is the CPU/NIC state of a simulated machine.
type host struct {
	net     *Network
	cpuFree sim.Time
	nicFree sim.Time
}

// cpu reserves CPU time for one packet and returns when processing
// completes.
func (h *host) cpu(now sim.Time, payloadLen int) sim.Time {
	start := now
	if h.cpuFree > start {
		start = h.cpuFree
	}
	done := start + cpuCost(payloadLen)
	h.cpuFree = done
	return done
}

// nic pushes one packet through the host's egress interface: it drains
// at line rate and drops when the queued backlog exceeds the queue
// bound. It returns the wire-exit time and whether the packet was
// dropped.
func (h *host) nic(now sim.Time, wireBytes int) (sim.Time, bool) {
	if h.nicFree < now {
		h.nicFree = now
	}
	if h.net.cfg.NICQueueBytes > 0 {
		backlog := float64(h.nicFree-now) / float64(sim.Second) * h.net.cfg.LineRate
		if int(backlog)+wireBytes > h.net.cfg.NICQueueBytes {
			h.net.NICDrops++
			return 0, true
		}
	}
	service := sim.Time(float64(wireBytes) / h.net.cfg.LineRate * float64(sim.Second))
	h.nicFree += service
	return h.nicFree, false
}

// SenderHost couples a sender machine with its application source.
type SenderHost struct {
	host
	feeder
}

// ReceiverHost couples a receiver machine with its group.
type ReceiverHost struct {
	host
	rx
	Group Group
	gr    *groupRouter
	rxRng *sim.RNG
}

// AddSender installs the sender host; only one is supported (the paper's
// protocol is single-source).
func (n *Network) AddSender(m *sender.Sender, src app.Source) *SenderHost {
	if n.snd != nil {
		panic("netsim: second sender")
	}
	n.senderHost = &SenderHost{host: host{net: n}, feeder: feeder{M: m, Source: src}}
	n.snd, n.stream = &n.senderHost.feeder, streamOf(m)
	return n.senderHost
}

// AddReceiver installs a receiver host in the given characteristic
// group.
func (n *Network) AddReceiver(m *receiver.Receiver, g Group, sink app.Sink) *ReceiverHost {
	id := packet.NodeID(len(n.nodes) + 1)
	r := &ReceiverHost{
		host:  host{net: n},
		rx:    rx{id: id, M: m, Sink: sink},
		Group: g,
		rxRng: n.rng.Stream(uint64(id) + 1000),
	}
	r.gr = n.group(g)
	n.nodes = append(n.nodes, r)
	return r
}

// Receivers returns the installed receiver hosts.
func (n *Network) Receivers() []*ReceiverHost { return n.nodes }

// Sender returns the installed sender host.
func (n *Network) Sender() *SenderHost { return n.senderHost }

// start arms a tick event per host. A crashed receiver keeps ticking,
// cheaply, so a restart resumes it without rescheduling.
func (n *Network) start() {
	n.every(jiffy, func(now sim.Time) bool {
		n.stepSender(now)
		return !n.done()
	})
	for _, r := range n.nodes {
		n.every(jiffy, func(now sim.Time) bool {
			n.step(r, now)
			return (r.crashed || !r.M.Done()) && !n.done()
		})
	}
}

func (n *Network) cpu(id packet.NodeID, now sim.Time, payload int) sim.Time {
	if id == 0 {
		return n.senderHost.cpu(now, payload)
	}
	return n.nodes[id-1].cpu(now, payload)
}

// routeSender pushes the sender machine's output through its CPU and NIC
// and fans it out to its destinations: one correlated draw per group
// router, then each receiver's tail link.
func (n *Network) routeSender(now sim.Time) {
	s := n.senderHost
	for _, o := range s.M.Outgoing() {
		n.emit(0, o.Pkt, o.Dest.Multicast, o.Dest.Node)
		exit, dropped := s.nic(s.cpu(now, len(o.Pkt.Payload)), o.Pkt.WireSize())
		if dropped {
			continue
		}
		if !o.Dest.Multicast {
			if i := int(o.Dest.Node) - 1; i >= 0 && i < len(n.nodes) && !n.routerLost(n.nodes[i].gr) {
				n.arrive(exit, 0, n.nodes[i], o.Pkt)
			}
			continue
		}
		for _, gr := range n.groups {
			gr.lost = gr.loss.Bool(gr.g.Loss * CorrelatedShare)
		}
		for _, r := range n.nodes {
			if r.gr.lost {
				n.RouterDrops++
				continue
			}
			n.arrive(exit, 0, r, o.Pkt)
		}
	}
}

// routerLost draws gr's correlated loss for one packet and counts it.
func (n *Network) routerLost(gr *groupRouter) bool {
	if gr.loss.Bool(gr.g.Loss * CorrelatedShare) {
		n.RouterDrops++
		return true
	}
	return false
}

// nicLost draws r's uncorrelated loss for one packet and counts it.
func (n *Network) nicLost(r *ReceiverHost) bool {
	if r.rxRng.Bool(r.Group.Loss * (1 - CorrelatedShare)) {
		n.NICDrops++
		return true
	}
	return false
}

// arrive applies r's tail link to a packet that leaves the backbone at
// exit: uncorrelated loss at the receiver NIC, then the group's one-way
// delay and the lower-layer latency.
func (n *Network) arrive(exit sim.Time, from packet.NodeID, r *ReceiverHost, p *packet.Packet) {
	if n.nicLost(r) {
		return
	}
	pkt := p.Clone()
	n.Engine.At(exit+r.Group.Delay+lowerLayerDelay, func() { n.deliver(r, from, pkt) })
}

// route sends receiver feedback back to the sender, and — for the
// local-recovery extension — multicast NAKs and repairs to the whole
// group including the sender. Repair-plane unicast, which only a repair
// head or leaf emits, runs on Hierarchy and is not routed here.
func (n *Network) route(r *ReceiverHost, now sim.Time) {
	for _, p := range r.M.OutgoingMulticast() {
		n.emit(r.id, p, true, 0)
		exit, ok := n.climb(r, now, p)
		if !ok {
			continue
		}
		// Fan out to the sender (delay = origin's tail only) ...
		n.up(r, exit, p)
		// ... and to every other receiver (origin tail + their tail).
		for _, dst := range n.nodes {
			if dst != r && !n.routerLost(dst.gr) {
				n.arrive(exit+r.Group.Delay, r.id, dst, p)
			}
		}
	}
	for _, p := range r.M.Outgoing() {
		n.emit(r.id, p, false, 0)
		if exit, ok := n.climb(r, now, p); ok && !n.nicLost(r) {
			n.up(r, exit, p)
		}
	}
}

// climb takes one of r's packets through its CPU and NIC and up its
// group's tail link to the backbone, one correlated draw; false when it
// is lost on the way.
func (n *Network) climb(r *ReceiverHost, now sim.Time, p *packet.Packet) (sim.Time, bool) {
	exit, dropped := r.nic(r.cpu(now, len(p.Payload)), p.WireSize())
	return exit, !dropped && !n.routerLost(r.gr)
}

// up carries one of r's packets from the backbone, which it reached at
// exit, to the sender: the origin group's one-way delay and the
// lower-layer latency.
func (n *Network) up(r *ReceiverHost, exit sim.Time, p *packet.Packet) {
	pkt := p.Clone()
	n.Engine.At(exit+r.Group.Delay+lowerLayerDelay, func() { n.toSender(r.id, pkt) })
}

// String describes the network briefly.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{rate=%.0fMbps receivers=%d}", n.cfg.LineRate*8/1e6, len(n.nodes))
}
