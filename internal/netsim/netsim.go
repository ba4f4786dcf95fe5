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
	"repro/internal/seqspace"
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
	// processing; a restart rebuilds its machine via the host's Rebuild
	// hook. The sender (NodeID 0) cannot crash in this model.
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

// Network owns the simulation: one sender host and any number of
// receiver hosts organized in characteristic groups.
type Network struct {
	Engine *sim.Engine
	cfg    Config
	rng    *sim.RNG

	snd  *SenderHost
	rcvs []*ReceiverHost
	// stream is the sender's stream geometry, for re-anchoring the
	// verification of receivers Faults restarts.
	stream stream

	// Per-group router serialization and loss streams.
	groups map[string]*groupRouter

	faults *faultState

	seams

	// Drop counters.
	NICDrops    int64
	RouterDrops int64
}

// newHook, when a test sets it, sees every Network New creates —
// including the ones internal/experiments builds for the figures.
var newHook func(*Network)

// seams are the test hooks of both drivers (see wake_test.go).
// wakeDriven runs a machine's Tick or Advance only on the jiffies at or
// past its NextWake, the way a deadline-driven driver would; emitted
// sees every packet a machine hands the network, before the network
// model decides its fate.
type seams struct {
	wakeDriven bool
	emitted    func(from packet.NodeID, p *packet.Packet, multicast bool, to packet.NodeID)
}

// due reports whether a machine is to be run on this jiffy.
func (s *seams) due(now sim.Time, nextWake func() (sim.Time, bool)) bool {
	if !s.wakeDriven {
		return true
	}
	at, ok := nextWake()
	return ok && at <= now
}

func (s *seams) emit(from packet.NodeID, p *packet.Packet, multicast bool, to packet.NodeID) {
	if s.emitted != nil {
		s.emitted(from, p, multicast, to)
	}
}

type groupRouter struct {
	g    Group
	loss *sim.RNG
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.LineRate <= 0 {
		cfg.LineRate = Rate10Mbps
	}
	n := &Network{
		Engine: &sim.Engine{},
		cfg:    cfg,
		rng:    sim.NewRNG(cfg.Seed),
		groups: make(map[string]*groupRouter),
	}
	// Derive the fault stream only when a plan exists: Stream consumes
	// parent RNG state, and a fault-free run must draw identically to a
	// build without fault support at all.
	if cfg.Faults != nil && len(cfg.Faults.Events) > 0 {
		n.faults = newFaultState(cfg.Faults, n.rng.Stream(99))
		n.faults.onCrash = n.onCrash
		n.faults.onRestart = n.onRestart
	}
	if newHook != nil {
		newHook(n)
	}
	return n
}

// onCrash marks the receiver with the given address as down; its tick
// keeps rescheduling (cheap) but skips all processing.
func (n *Network) onCrash(node packet.NodeID) {
	if r := n.receiverByID(node); r != nil {
		r.crashed = true
	}
}

// onRestart revives a crashed receiver with a cold machine built by its
// Rebuild hook (a restart without Rebuild resumes the old machine — the
// process froze rather than died).
func (n *Network) onRestart(node packet.NodeID) {
	r := n.receiverByID(node)
	if r == nil {
		return
	}
	r.crashed = false
	if r.Rebuild != nil {
		r.restart(r.Rebuild())
	}
}

func (n *Network) receiverByID(node packet.NodeID) *ReceiverHost {
	idx := int(node) - 1
	if idx < 0 || idx >= len(n.rcvs) {
		return nil
	}
	return n.rcvs[idx]
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

// host is the shared CPU/NIC state of a simulated machine.
type host struct {
	net     *Network
	id      packet.NodeID
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

// feeder is the Application Interface of a simulated sender, the same in
// both models: it moves the source's bytes into the sender machine and
// closes the stream once the source's last byte is in.
type feeder struct {
	M      *sender.Sender
	Source app.Source
	closed bool
	// pending holds produced bytes the send window refused; they are
	// written before any new bytes so the stream stays exact.
	pending []byte
}

// feed writes previously refused bytes first, then produces fresh data
// until the window fills or the source runs dry.
func (f *feeder) feed(now sim.Time) {
	if f.closed {
		return
	}
	for len(f.pending) > 0 {
		w := f.M.Write(now, f.pending)
		f.pending = f.pending[w:]
		if w == 0 {
			return // window full
		}
	}
	for {
		avail := f.Source.Available(now)
		if avail == 0 {
			break
		}
		buf := make([]byte, min(avail, 64<<10))
		m := f.Source.Produce(now, buf)
		if m == 0 {
			break
		}
		if w := f.M.Write(now, buf[:m]); w < m {
			f.pending = buf[w:m]
			return
		}
	}
	if f.Source.Remaining() == 0 {
		f.closed = true
		f.M.Close(now)
	}
}

// rx is what both models keep per receiver host: its machine, whether
// the host is down, and the application reading the stream, which
// verifies every byte against the pattern the source wrote.
type rx struct {
	M       *receiver.Receiver
	crashed bool

	Received   int64 // bytes delivered to the application
	FinishedAt sim.Time
	Finished   bool
	BadBytes   int64 // pattern-verification failures (must stay zero)
	verifyOff  int64
	// pendingRebase defers verification re-anchoring until a machine that
	// joined mid-stream reports its JoinInProgress anchor.
	pendingRebase bool
}

// Crashed reports whether the host is currently down.
func (r *rx) Crashed() bool { return r.crashed }

// restart puts a cold machine in place of the old one. Delivery
// accounting restarts from the new machine's anchor.
func (r *rx) restart(m *receiver.Receiver) { *r = rx{M: m, pendingRebase: true} }

// stream is the sender's stream geometry, which translates a mid-stream
// joiner's anchor sequence s into the byte offset (s − initialSeq)·mss.
// That is exact only while every packet before the anchor carried MSS
// bytes: the 64 KiB feed buffer guarantees it when MSS divides it, and
// scenarios that restart receivers pick such an MSS.
type stream struct {
	mss        int
	initialSeq seqspace.Seq
}

func streamOf(m *sender.Sender) stream {
	mss, initialSeq := m.Stream()
	return stream{mss, initialSeq}
}

// drain performs application reads into buf — within sink's budget, when
// there is a sink — and reports whether this drain delivered the FIN.
func (r *rx) drain(now sim.Time, buf []byte, sink app.Sink, st stream) (finished bool) {
	if r.pendingRebase {
		rb, ok := r.M.RebasedAt()
		if !ok {
			return false // nothing readable before the anchor exists
		}
		r.verifyOff = int64(seqspace.Diff(rb, st.initialSeq)) * int64(st.mss)
		r.pendingRebase = false
	}
	for {
		b := buf
		if sink != nil {
			budget := sink.Budget(now)
			if budget <= 0 {
				return finished
			}
			b = buf[:min(budget, len(buf))]
		}
		m, err := r.M.Read(now, b)
		if m > 0 {
			if i := app.VerifyPattern(b[:m], r.verifyOff); i >= 0 {
				r.BadBytes++
			}
			r.verifyOff += int64(m)
			r.Received += int64(m)
			if sink != nil {
				sink.Consume(now, m)
			}
		}
		if r.M.FinDelivered() && !r.Finished {
			r.Finished, r.FinishedAt, finished = true, now, true
		}
		if err != nil || m == 0 {
			return finished
		}
	}
}

// SenderHost couples a sender machine with its application source.
type SenderHost struct {
	host
	feeder
}

// ReceiverHost couples a receiver machine with its group and sink.
type ReceiverHost struct {
	host
	rx
	Sink    app.Sink
	Group   Group
	rxRng   *sim.RNG
	readBuf []byte

	// Rebuild constructs a cold replacement machine when a FaultRestart
	// revives this host (typically receiver.New with JoinInProgress set).
	Rebuild func() *receiver.Receiver
}

// AddSender installs the sender host; only one is supported (the paper's
// protocol is single-source).
func (n *Network) AddSender(m *sender.Sender, src app.Source) *SenderHost {
	if n.snd != nil {
		panic("netsim: second sender")
	}
	s := &SenderHost{host: host{net: n, id: 0}, feeder: feeder{M: m, Source: src}}
	n.snd = s
	n.stream = streamOf(m)
	return s
}

// AddReceiver installs a receiver host in the given characteristic
// group.
func (n *Network) AddReceiver(m *receiver.Receiver, g Group, sink app.Sink) *ReceiverHost {
	id := packet.NodeID(len(n.rcvs) + 1)
	r := &ReceiverHost{
		host:    host{net: n, id: id},
		rx:      rx{M: m},
		Sink:    sink,
		Group:   g,
		rxRng:   n.rng.Stream(uint64(id) + 1000),
		readBuf: make([]byte, 64<<10),
	}
	n.group(g)
	n.rcvs = append(n.rcvs, r)
	return r
}

// Receivers returns the installed receiver hosts.
func (n *Network) Receivers() []*ReceiverHost { return n.rcvs }

// Sender returns the installed sender host.
func (n *Network) Sender() *SenderHost { return n.snd }

// FaultDrops returns how many packets the fault plane's loss bursts
// destroyed (zero without a plan).
func (n *Network) FaultDrops() int64 {
	if n.faults == nil {
		return 0
	}
	return n.faults.Drops
}

// Start arms the per-jiffy ticks. Call after all hosts are added.
func (n *Network) Start() {
	if n.snd == nil {
		panic("netsim: no sender")
	}
	n.faults.install(n.Engine, n.cfg.Faults)
	n.scheduleSenderTick(jiffy)
	for _, r := range n.rcvs {
		n.scheduleReceiverTick(r, jiffy)
	}
}

const jiffy = 10 * sim.Millisecond

func (n *Network) scheduleSenderTick(at sim.Time) {
	n.Engine.At(at, func() {
		now := n.Engine.Now()
		s := n.snd
		s.feed(now)
		if n.due(now, s.M.NextWake) {
			s.M.Tick(now)
		}
		n.flushSender(now)
		if !n.done() {
			n.scheduleSenderTick(now + jiffy)
		}
	})
}

func (n *Network) scheduleReceiverTick(r *ReceiverHost, at sim.Time) {
	n.Engine.At(at, func() {
		now := n.Engine.Now()
		if r.crashed {
			// Down: no processing, but keep the tick alive so a restart
			// resumes without rescheduling machinery.
			if !n.done() {
				n.scheduleReceiverTick(r, now+jiffy)
			}
			return
		}
		if n.due(now, r.M.NextWake) {
			r.M.Advance(now)
		}
		n.drainReads(r, now)
		n.flushReceiver(r, now)
		if !r.M.Done() && !n.done() {
			n.scheduleReceiverTick(r, now+jiffy)
		}
	})
}

// drainReads performs application reads within the sink's budget.
func (n *Network) drainReads(r *ReceiverHost, now sim.Time) {
	r.drain(now, r.readBuf, r.Sink, n.stream)
}

// flushSender routes the sender machine's outgoing packets through the
// CPU and NIC models into the network.
func (n *Network) flushSender(now sim.Time) {
	for _, o := range n.snd.M.Outgoing() {
		n.emit(0, o.Pkt, o.Dest.Multicast, o.Dest.Node)
		cpuDone := n.snd.cpu(now, len(o.Pkt.Payload))
		exit, dropped := n.snd.nic(cpuDone, o.Pkt.WireSize())
		if dropped {
			continue
		}
		n.deliverFromSender(exit, o)
	}
}

// deliverFromSender fans a sender packet out to its destinations with
// group delay and loss applied.
func (n *Network) deliverFromSender(exit sim.Time, o sender.Out) {
	if o.Dest.Multicast {
		// One correlated-loss draw per group; uncorrelated per receiver.
		corrLost := make(map[string]bool, len(n.groups))
		for name, gr := range n.groups {
			corrLost[name] = gr.loss.Bool(gr.g.Loss * CorrelatedShare)
		}
		for _, r := range n.rcvs {
			if corrLost[r.Group.Name] {
				n.RouterDrops++
				continue
			}
			n.deliverToReceiver(exit, 0, r, o.Pkt)
		}
		return
	}
	for _, r := range n.rcvs {
		if r.id == o.Dest.Node {
			gr := n.groups[r.Group.Name]
			if gr.loss.Bool(gr.g.Loss * CorrelatedShare) {
				n.RouterDrops++
				return
			}
			n.deliverToReceiver(exit, 0, r, o.Pkt)
			return
		}
	}
}

// deliverToReceiver applies the tail-link model for one receiver: the
// group's one-way delay, the lower-layer latency, uncorrelated loss at
// the receiver NIC, then CPU processing before the protocol sees it.
func (n *Network) deliverToReceiver(exit sim.Time, from packet.NodeID, r *ReceiverHost, p *packet.Packet) {
	if r.rxRng.Bool(r.Group.Loss * (1 - CorrelatedShare)) {
		n.NICDrops++
		return
	}
	arrive := exit + r.Group.Delay + lowerLayerDelay
	pkt := p.Clone()
	n.Engine.At(arrive, func() {
		now := n.Engine.Now()
		if r.crashed || n.faults.Blocked(now, from, r.id) {
			return
		}
		done := r.cpu(now, len(pkt.Payload))
		n.Engine.At(done, func() {
			t := n.Engine.Now()
			if r.crashed {
				return
			}
			r.M.HandleFrom(t, from, pkt)
			n.drainReads(r, t)
			n.flushReceiver(r, t)
		})
	})
}

// flushReceiver routes receiver feedback back to the sender, and — for
// the local-recovery extension — multicast NAKs and repairs to the whole
// group including the sender.
func (n *Network) flushReceiver(r *ReceiverHost, now sim.Time) {
	for _, p := range r.M.OutgoingMulticast() {
		n.emit(r.id, p, true, 0)
		cpuDone := r.cpu(now, len(p.Payload))
		exit, dropped := r.nic(cpuDone, p.WireSize())
		if dropped {
			continue
		}
		// Origin tail link: one correlated draw covers the climb to the
		// backbone.
		gr := n.groups[r.Group.Name]
		if gr.loss.Bool(gr.g.Loss * CorrelatedShare) {
			n.RouterDrops++
			continue
		}
		// Fan out to the sender (delay = origin's tail only) ...
		pkt := p.Clone()
		origin := r
		n.Engine.At(exit+r.Group.Delay+lowerLayerDelay, func() {
			t0 := n.Engine.Now()
			if n.faults.Blocked(t0, origin.id, 0) {
				return
			}
			done := n.snd.cpu(t0, len(pkt.Payload))
			n.Engine.At(done, func() {
				t := n.Engine.Now()
				n.snd.M.HandlePacket(t, origin.id, pkt)
				n.flushSender(t)
			})
		})
		// ... and to every other receiver (origin tail + their tail).
		for _, dst := range n.rcvs {
			if dst == r {
				continue
			}
			dgr := n.groups[dst.Group.Name]
			if dgr.loss.Bool(dgr.g.Loss * CorrelatedShare) {
				n.RouterDrops++
				continue
			}
			n.deliverToReceiver(exit+r.Group.Delay, r.id, dst, p)
		}
	}
	// Repair-plane unicast (hierarchical-recovery extension): leaf→head
	// feedback and head→leaf responses travel receiver-to-receiver —
	// origin tail, then the destination's tail inside deliverToReceiver.
	for _, a := range r.M.OutgoingAddressed() {
		n.emit(r.id, a.Pkt, false, a.To)
		cpuDone := r.cpu(now, len(a.Pkt.Payload))
		exit, dropped := r.nic(cpuDone, a.Pkt.WireSize())
		if dropped {
			continue
		}
		idx := int(a.To) - 1
		if idx < 0 || idx >= len(n.rcvs) {
			continue
		}
		gr := n.groups[r.Group.Name]
		if gr.loss.Bool(gr.g.Loss * CorrelatedShare) {
			n.RouterDrops++
			continue
		}
		n.deliverToReceiver(exit+r.Group.Delay, r.id, n.rcvs[idx], a.Pkt)
	}
	for _, p := range r.M.Outgoing() {
		n.emit(r.id, p, false, 0)
		cpuDone := r.cpu(now, len(p.Payload))
		exit, dropped := r.nic(cpuDone, p.WireSize())
		if dropped {
			continue
		}
		gr := n.groups[r.Group.Name]
		if gr.loss.Bool(gr.g.Loss * CorrelatedShare) {
			n.RouterDrops++
			continue
		}
		if r.rxRng.Bool(r.Group.Loss * (1 - CorrelatedShare)) {
			n.NICDrops++
			continue
		}
		arrive := exit + r.Group.Delay + lowerLayerDelay
		pkt := p.Clone()
		from := r.id
		n.Engine.At(arrive, func() {
			t0 := n.Engine.Now()
			if n.faults.Blocked(t0, from, 0) {
				return
			}
			done := n.snd.cpu(t0, len(pkt.Payload))
			n.Engine.At(done, func() {
				t := n.Engine.Now()
				n.snd.M.HandlePacket(t, from, pkt)
				n.flushSender(t)
			})
		})
	}
}

// done reports whether the whole transfer has completed.
func (n *Network) done() bool {
	if !n.snd.M.Done() {
		return false
	}
	for _, r := range n.rcvs {
		if !r.Finished && !r.crashed {
			return false
		}
	}
	return true
}

// Result summarizes a run.
type Result struct {
	// Duration is when the last receiver finished delivering the stream.
	Duration sim.Time
	// Completed reports whether every receiver finished within the
	// limit.
	Completed bool
	// Bytes is the stream size delivered per receiver.
	Bytes int64
	// NICDrops and RouterDrops count simulated losses.
	NICDrops, RouterDrops int64
}

// ThroughputMbps returns the end-to-end goodput in megabits/second.
func (r Result) ThroughputMbps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Duration.Seconds() / 1e6
}

// Run drives the simulation until the transfer completes or limit
// elapses.
func (n *Network) Run(limit sim.Time) Result {
	n.Start()
	for n.Engine.Now() < limit && !n.done() {
		if !n.Engine.Step() {
			break
		}
	}
	res := Result{Completed: true, NICDrops: n.NICDrops, RouterDrops: n.RouterDrops}
	for _, r := range n.rcvs {
		res.add(&r.rx)
	}
	return res
}

// add folds one receiver host into the result: the run completed when
// every host still up at its end has finished, and lasted until the last
// of them did.
func (res *Result) add(r *rx) {
	if !r.Finished {
		res.Completed = res.Completed && r.crashed
		return
	}
	res.Duration = max(res.Duration, r.FinishedAt)
	res.Bytes = r.Received
}

// String describes the network briefly.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{rate=%.0fMbps receivers=%d}", n.cfg.LineRate*8/1e6, len(n.rcvs))
}
