// The driver half of Network: everything that runs the machines rather
// than carries their packets. It owns the sender's feed/Tick/HandlePacket
// path, the receiver host's stream verification, crash and restart, the
// one tick that steps every host, packet input, and the end of a run.
// The link model (netsim.go) only decides where a packet goes, when it
// gets there and whether it is lost on the way.
package netsim

import (
	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/sender"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// jiffy is the tick the machines run on.
const jiffy = 10 * sim.Millisecond

// seams are the network's test hooks (see wake_test.go and
// shared_test.go). wakeDriven runs a machine's Tick or Advance only on
// the jiffies at or past its NextWake, the way a deadline-driven driver
// would; emitted sees every packet a machine hands the network, before
// the link model decides its fate; shared sees each copy land hands to
// several hosts.
type seams struct {
	wakeDriven bool
	emitted    func(from packet.NodeID, p *packet.Packet, multicast bool, to packet.NodeID)
	shared     func(p *packet.Packet)
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

// feeder is the Application Interface of the simulated sender: it moves
// the source's bytes into the sender machine and closes the stream once
// the source's last byte is in.
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

// delivery is what the application has read, verified against the
// pattern the source wrote. A rebuilt machine starts a fresh one.
type delivery struct {
	Received   int64 // bytes delivered to the application
	FinishedAt sim.Time
	Finished   bool
	BadBytes   int64 // pattern-verification failures (must stay zero)
	verifyOff  int64
	// pendingRebase defers verification re-anchoring until a machine that
	// joined mid-stream reports its JoinInProgress anchor.
	pendingRebase bool
}

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

// drain performs application reads into buf — within the sink's budget,
// when there is a sink — and reports whether this drain delivered the
// FIN.
func (r *ReceiverHost) drain(now sim.Time, buf []byte, st stream) (finished bool) {
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
		if r.Sink != nil {
			budget := r.Sink.Budget(now)
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
			if r.Sink != nil {
				r.Sink.Consume(now, m)
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

// byID returns the receiver host with the given address, or nil.
func (n *Network) byID(id packet.NodeID) *ReceiverHost {
	if i := int(id) - 1; i >= 0 && i < len(n.nodes) {
		return n.nodes[i]
	}
	return nil
}

// crash takes a receiver host down: it stops being stepped, and nothing
// reaches it or leaves it until a restart.
func (n *Network) crash(id packet.NodeID) {
	r := n.byID(id)
	if r == nil || r.crashed {
		return
	}
	r.crashed = true
	if !r.Finished {
		n.down++
	}
}

// restart revives a crashed host, with a cold machine from its Rebuild
// when it has one. It does nothing to a live host.
func (n *Network) restart(id packet.NodeID) {
	r := n.byID(id)
	if r == nil || !r.crashed {
		return
	}
	r.crashed = false
	if !r.Finished {
		n.down--
	}
	if r.Rebuild == nil {
		return
	}
	if r.Finished {
		n.finished-- // it must finish again from its new anchor
	}
	r.M, r.delivery, r.idle = r.Rebuild(), delivery{pendingRebase: true}, false
}

// blocked decides the fate of one packet between a and b (0 is the
// sender) at now: lost when either end is down or the fault plane cuts
// or bursts it.
func (n *Network) blocked(now sim.Time, a, b packet.NodeID) bool {
	if n.faults == nil {
		return false
	}
	return n.isDown(a) || n.isDown(b) || n.faults.Blocked(now, a, b)
}

func (n *Network) isDown(id packet.NodeID) bool {
	r := n.byID(id)
	return r != nil && r.crashed
}

// start arms the one tick event. Each jiffy it steps the sender, then
// every receiver host in NodeID order, hosts added mid-run included. A
// live host that has finished (its machine Done) sits out every tick
// after; a crashed one keeps being visited, cheaply, so a restart
// resumes it. The tick stops where the run ends, even between two
// hosts.
func (n *Network) start() {
	var tick func()
	tick = func() {
		now := n.Engine.Now()
		n.stepSender(now)
		for _, r := range n.nodes {
			if n.done() {
				return
			}
			if !r.idle {
				n.step(r, now)
				r.idle = !r.crashed && r.M.Done()
			}
		}
		if !n.done() {
			n.Engine.At(now+jiffy, tick)
		}
	}
	n.Engine.At(jiffy, tick)
}

// stepSender is the sender's tick: the application feeds the window,
// the machine's Tick runs when due, and its output is routed.
func (n *Network) stepSender(now sim.Time) {
	n.senderHost.feed(now)
	if n.due(now, n.senderHost.M.NextWake) {
		n.senderHost.M.Tick(now)
	}
	n.routeSender(now)
}

// step is one receiver host's tick: the machine's Advance when due, the
// application's reads, and its output routed. A crashed host sits it
// out.
func (n *Network) step(r *ReceiverHost, now sim.Time) {
	if r.crashed {
		return
	}
	if n.due(now, r.M.NextWake) {
		r.M.Advance(now)
	}
	n.settle(r, now)
}

// settle follows every receiver machine entry point: the application
// reads, and the machine's output is routed.
func (n *Network) settle(r *ReceiverHost, now sim.Time) {
	if r.drain(now, n.readBuf, n.stream) {
		n.finished++
	}
	n.route(r, now)
}

// deliver is p from `from` reaching hosts, in NodeID order, at once.
// Unless the fault plane stops it, each host's CPU takes it next; the
// hosts whose CPUs are through with it at the same instant (every idle
// one) then handle it in one engine event, in the same order. A host
// that crashed meanwhile drops it, and a run that ends between two hosts
// ends there.
func (n *Network) deliver(hosts []*ReceiverHost, from packet.NodeID, p *packet.Packet) {
	now := n.Engine.Now()
	var ready []arrival
	for _, r := range hosts {
		if n.blocked(now, from, r.id) {
			continue
		}
		done := r.cpu(now, len(p.Payload))
		if k := len(ready) - 1; k >= 0 && ready[k].at == done {
			ready[k].hosts = append(ready[k].hosts, r)
			continue
		}
		ready = append(ready, arrival{done, []*ReceiverHost{r}})
	}
	for _, a := range ready {
		n.Engine.At(a.at, func() {
			for _, r := range a.hosts {
				if n.done() {
					return
				}
				if !r.crashed {
					n.handle(r, from, p)
				}
			}
		})
	}
}

// handle is receiver host r's machine taking a packet, then settling.
func (n *Network) handle(r *ReceiverHost, from packet.NodeID, p *packet.Packet) {
	now := n.Engine.Now()
	r.M.HandleFrom(now, from, p)
	n.settle(r, now)
}

// toSender is a packet from receiver `from` reaching the sender: unless
// the fault plane stops it, it waits for the sender's CPU, then the
// machine handles it.
func (n *Network) toSender(from packet.NodeID, p *packet.Packet) {
	now := n.Engine.Now()
	if n.blocked(now, from, 0) {
		return
	}
	n.SenderFeedback++
	if done := n.senderHost.cpu(now, len(p.Payload)); done > now {
		n.Engine.At(done, func() { n.senderHandle(from, p) })
		return
	}
	n.senderHandle(from, p)
}

// senderHandle is the sender machine taking a packet, then its output
// routed.
func (n *Network) senderHandle(from packet.NodeID, p *packet.Packet) {
	now := n.Engine.Now()
	n.senderHost.M.HandlePacket(now, from, p)
	n.routeSender(now)
}

// done reports whether the whole transfer has completed: the sender is
// done and every host still up has read the FIN.
func (n *Network) done() bool {
	return n.senderHost.M.Done() && n.finished+n.down == len(n.nodes)
}

// FaultDrops returns how many packets the fault plane's loss bursts
// destroyed (zero without a plan).
func (n *Network) FaultDrops() int64 {
	if n.faults == nil {
		return 0
	}
	return n.faults.Drops
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
// elapses. Call it once, after the sender is added; receiver hosts added
// from a scheduled event join mid-run.
func (n *Network) Run(limit sim.Time) Result {
	if n.senderHost == nil {
		panic("netsim: no sender")
	}
	n.running = true
	n.faults.install(n.Engine, n.crash, n.restart)
	n.start()
	for n.Engine.Now() < limit && !n.done() {
		if !n.Engine.Step() {
			break
		}
	}
	res := Result{Completed: true, NICDrops: n.NICDrops, RouterDrops: n.RouterDrops}
	for _, r := range n.nodes {
		res.add(r)
	}
	return res
}

// add folds one receiver host into the result: the run completed when
// every host still up at its end has finished, and lasted until the last
// of them did.
func (res *Result) add(r *ReceiverHost) {
	if !r.Finished {
		res.Completed = res.Completed && r.crashed
		return
	}
	res.Duration = max(res.Duration, r.FinishedAt)
	res.Bytes = r.Received
}
