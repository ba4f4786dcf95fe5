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
//
// The same model carries the hierarchical repair tier: a group can be a
// repair head's subtree, and the tier's scale and chaos scenarios run
// 10,000 receivers on it. What makes that affordable is that the fan-out
// costs nothing per receiver beyond the receiver's own work: one copy of
// a routed packet is shared by every host it reaches, one tick steps
// every host, and one event per distinct instant delivers a packet, and
// hands it to the machines, for every host that shares that instant.
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

// Network is the paper's host, interface and router model: one sender
// host and any number of receiver hosts organized in characteristic
// groups. A group can also be a repair head's subtree: its head is one
// host built with receiver.Config.Head, its leaves the group's other
// hosts, built with RepairHead.
type Network struct {
	Engine *sim.Engine
	cfg    Config
	rng    *sim.RNG
	faults *faultState
	seams

	senderHost *SenderHost
	nodes      []*ReceiverHost // NodeID i+1 at index i
	// Per-group router serialization and loss streams.
	groups map[string]*groupRouter
	// stream translates a mid-stream joiner's anchor into a byte offset.
	stream stream
	// running is set once Run starts: a host added after that joins the
	// stream in progress.
	running bool
	// finished counts hosts whose application has read the FIN; down
	// counts the crashed ones that had not. A run completes around a
	// dead host.
	finished, down int
	// readBuf is shared by every drain; the engine is single-threaded.
	readBuf []byte
	// batch collects the arrivals of the packet being routed (see land).
	batch []arrival

	// SenderFeedback counts packets receivers delivered to the sender:
	// the quantity the repair tier exists to collapse.
	SenderFeedback int64
	// NICDrops and RouterDrops count the link model's losses.
	NICDrops, RouterDrops int64
}

// newHook, when a test sets it, sees every Network New creates —
// including the ones internal/experiments builds for the figures.
var newHook func(*Network)

type groupRouter struct {
	g    Group
	loss *sim.RNG
	lost bool // this multicast packet's correlated draw
	// hosts are the group's receiver hosts in NodeID order.
	hosts []*ReceiverHost
	// repair is set once a host of the group speaks the repair plane
	// (addressed unicast: a leaf to its head, a head to a leaf). From then
	// on the group is a head's subtree, and its multicast — a head's
	// repairs and declines — reaches only the group.
	repair bool
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.LineRate <= 0 {
		cfg.LineRate = Rate10Mbps
	}
	n := &Network{Engine: &sim.Engine{}, cfg: cfg, rng: sim.NewRNG(cfg.Seed), groups: make(map[string]*groupRouter), readBuf: make([]byte, 64<<10)}
	n.faults = newFaultState(cfg.Faults, n.rng, 99)
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

// ReceiverHost is one receiver machine on its host, in its group, with
// the application reading its stream.
type ReceiverHost struct {
	host
	id packet.NodeID
	M  *receiver.Receiver
	// Sink, when set, bounds the application's reads by its budget.
	Sink app.Sink
	// Rebuild constructs a cold replacement machine when a FaultRestart
	// revives this host (typically receiver.New with JoinInProgress
	// set). Without it a restart resumes the old machine: the process
	// froze rather than died.
	Rebuild func() *receiver.Receiver
	crashed bool
	// idle is set once the live host's machine is Done: the tick passes
	// it by.
	idle bool
	delivery
	Group Group
	gr    *groupRouter
	rxRng *sim.RNG
}

// ID returns the host's simulated unicast address.
func (r *ReceiverHost) ID() packet.NodeID { return r.id }

// Crashed reports whether the host is currently down.
func (r *ReceiverHost) Crashed() bool { return r.crashed }

// AddSender installs the sender host; only one is supported (the paper's
// protocol is single-source).
func (n *Network) AddSender(m *sender.Sender, src app.Source) *SenderHost {
	if n.senderHost != nil {
		panic("netsim: second sender")
	}
	n.senderHost = &SenderHost{host: host{net: n}, feeder: feeder{M: m, Source: src}}
	n.stream = streamOf(m)
	return n.senderHost
}

// AddReceiver installs a receiver host in the given characteristic
// group; its NodeID is one more than the last host's. A host added while
// the network runs (from a scheduled event) joins the stream in
// progress: its machine must be built with JoinInProgress, and its
// stream is verified from the anchor the machine reports.
func (n *Network) AddReceiver(m *receiver.Receiver, g Group, sink app.Sink) *ReceiverHost {
	id := packet.NodeID(len(n.nodes) + 1)
	r := &ReceiverHost{
		host:     host{net: n},
		id:       id,
		M:        m,
		Sink:     sink,
		delivery: delivery{pendingRebase: n.running},
		Group:    g,
		rxRng:    n.rng.Stream(uint64(id) + 1000),
	}
	r.gr = n.group(g)
	r.gr.hosts = append(r.gr.hosts, r)
	n.nodes = append(n.nodes, r)
	return r
}

// Receivers returns the installed receiver hosts.
func (n *Network) Receivers() []*ReceiverHost { return n.nodes }

// Sender returns the installed sender host.
func (n *Network) Sender() *SenderHost { return n.senderHost }

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
			if r := n.byID(o.Dest.Node); r != nil && !n.routerLost(r.gr) {
				n.arrive(exit, r)
			}
			n.land(0, o.Pkt)
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
			n.arrive(exit, r)
		}
		n.land(0, o.Pkt)
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

// arrival is one instant at which the packet being routed reaches
// hosts, and those hosts in NodeID order.
type arrival struct {
	at    sim.Time
	hosts []*ReceiverHost
}

// arrive applies r's tail link to the packet being routed, which leaves
// the backbone at exit: uncorrelated loss at the receiver NIC, then the
// group's one-way delay and the lower-layer latency. It adds r to the
// batch land schedules.
func (n *Network) arrive(exit sim.Time, r *ReceiverHost) {
	if n.nicLost(r) {
		return
	}
	at := exit + r.Group.Delay + lowerLayerDelay
	for i := range n.batch {
		if n.batch[i].at == at {
			n.batch[i].hosts = append(n.batch[i].hosts, r)
			return
		}
	}
	n.batch = append(n.batch, arrival{at, []*ReceiverHost{r}})
}

// land schedules the batch arrive collected for p, sent by `from`: one
// copy of p is shared by every host it reaches (a machine never writes
// to a packet it is handed), and one engine event per distinct arrival
// time hands it to that instant's hosts in NodeID order. The engine runs
// equal times first in first out, so that is the order one event per
// host would give.
func (n *Network) land(from packet.NodeID, p *packet.Packet) {
	if len(n.batch) == 0 {
		return
	}
	pkt := p.Clone()
	if n.shared != nil {
		n.shared(pkt)
	}
	for _, a := range n.batch {
		n.Engine.At(a.at, func() { n.deliver(a.hosts, from, pkt) })
	}
	n.batch = n.batch[:0]
}

// route sends receiver r's output. Feedback goes up to the sender.
// Multicast — NAKs and repairs under local recovery — goes to the sender
// and every other receiver, unless r's group is a repair head's subtree:
// then a head's repairs and declines reach only the group. Repair-plane
// unicast goes from r's CPU and NIC through the group's router to the
// destination's tail link.
func (n *Network) route(r *ReceiverHost, now sim.Time) {
	for _, p := range r.M.OutgoingMulticast() {
		n.emit(r.id, p, true, 0)
		exit, ok := n.climb(r, now, p)
		if !ok {
			continue
		}
		if r.gr.repair {
			for _, dst := range r.gr.hosts {
				if dst != r {
					n.arrive(exit+r.Group.Delay, dst)
				}
			}
		} else {
			// Fan out to the sender (delay = origin's tail only) ...
			n.up(r, exit, p)
			// ... and to every other receiver (origin tail + their tail).
			for _, dst := range n.nodes {
				if dst != r && !n.routerLost(dst.gr) {
					n.arrive(exit+r.Group.Delay, dst)
				}
			}
		}
		n.land(r.id, p)
	}
	for _, p := range r.M.Outgoing() {
		n.emit(r.id, p, false, 0)
		if exit, ok := n.climb(r, now, p); ok && !n.nicLost(r) {
			n.up(r, exit, p)
		}
	}
	for _, a := range r.M.OutgoingAddressed() {
		n.emit(r.id, a.Pkt, false, a.To)
		r.gr.repair = true
		if exit, ok := n.climb(r, now, a.Pkt); ok {
			if dst := n.byID(a.To); dst != nil {
				n.arrive(exit+r.Group.Delay, dst)
			}
			n.land(r.id, a.Pkt)
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
