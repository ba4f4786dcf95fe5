// The one driver both network models run on. It owns everything the
// flat Network and the two-level Hierarchy do alike: the sender's
// feed/Tick/HandlePacket path, the receiver host record and its stream
// verification, crash and restart, the node step, packet input, and the
// end of a run. A model keeps only its topology and link model, behind
// the link seam: how its ticks are armed, how a machine's output travels,
// and what a host's CPU charges.
package netsim

import (
	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// jiffy is the tick both models run their machines on.
const jiffy = 10 * sim.Millisecond

// node is a receiver host of either model: the model's own record with
// the shared rx embedded.
type node interface{ rec() *rx }

// link is the routing seam, all that differs between the models.
type link[N node] interface {
	// start arms the model's tick events.
	start()
	// routeSender sends what the sender machine has queued.
	routeSender(now sim.Time)
	// route sends what one receiver machine has queued.
	route(nd N, now sim.Time)
	// cpu reserves host id's CPU (0 is the sender) for one packet with
	// the given payload and returns when it is processed: now when the
	// model charges no CPU.
	cpu(id packet.NodeID, now sim.Time, payload int) sim.Time
}

// driver is the simulation state both models share.
type driver[N node] struct {
	Engine *sim.Engine
	link   link[N]
	faults *faultState
	seams

	snd   *feeder
	nodes []N // NodeID i+1 at index i
	// stream translates a mid-stream joiner's anchor into a byte offset.
	stream stream
	// finished counts hosts whose application has read the FIN; down
	// counts the crashed ones that had not. A run completes around a
	// dead host.
	finished, down int
	// readBuf is shared by every drain; the engine is single-threaded.
	readBuf []byte

	// SenderFeedback counts packets receivers delivered to the sender:
	// the quantity the repair tier exists to collapse.
	SenderFeedback int64
	// NICDrops and RouterDrops count the link model's losses.
	NICDrops, RouterDrops int64
}

func newDriver[N node](l link[N], faults *faultState) driver[N] {
	return driver[N]{Engine: &sim.Engine{}, link: l, faults: faults, readBuf: make([]byte, 64<<10)}
}

// seams are the drivers' test hooks (see wake_test.go). wakeDriven runs
// a machine's Tick or Advance only on the jiffies at or past its
// NextWake, the way a deadline-driven driver would; emitted sees every
// packet a machine hands the network, before the link model decides its
// fate.
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

// rx is the receiver host record both models share: the machine, the
// application reading its stream, one crash flag and an optional
// rebuild.
type rx struct {
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
	delivery
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

func (r *rx) rec() *rx { return r }

// ID returns the host's simulated unicast address.
func (r *rx) ID() packet.NodeID { return r.id }

// Crashed reports whether the host is currently down.
func (r *rx) Crashed() bool { return r.crashed }

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
func (r *rx) drain(now sim.Time, buf []byte, st stream) (finished bool) {
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
func (d *driver[N]) byID(id packet.NodeID) *rx {
	if i := int(id) - 1; i >= 0 && i < len(d.nodes) {
		return d.nodes[i].rec()
	}
	return nil
}

// crash takes a receiver host down: it stops being stepped, and nothing
// reaches it or leaves it until a restart.
func (d *driver[N]) crash(id packet.NodeID) {
	r := d.byID(id)
	if r == nil || r.crashed {
		return
	}
	r.crashed = true
	if !r.Finished {
		d.down++
	}
}

// restart revives a crashed host, with a cold machine from its Rebuild
// when it has one. It does nothing to a live host.
func (d *driver[N]) restart(id packet.NodeID) {
	r := d.byID(id)
	if r == nil || !r.crashed {
		return
	}
	r.crashed = false
	if !r.Finished {
		d.down--
	}
	if r.Rebuild == nil {
		return
	}
	if r.Finished {
		d.finished-- // it must finish again from its new anchor
	}
	r.M, r.delivery = r.Rebuild(), delivery{pendingRebase: true}
}

// blocked decides the fate of one packet between a and b (0 is the
// sender) at now: lost when either end is down or the fault plane cuts
// or bursts it.
func (d *driver[N]) blocked(now sim.Time, a, b packet.NodeID) bool {
	if d.faults == nil {
		return false
	}
	return d.isDown(a) || d.isDown(b) || d.faults.Blocked(now, a, b)
}

func (d *driver[N]) isDown(id packet.NodeID) bool {
	r := d.byID(id)
	return r != nil && r.crashed
}

// every runs fn at the given time, then once a jiffy for as long as fn
// reports there is more to do.
func (d *driver[N]) every(at sim.Time, fn func(now sim.Time) bool) {
	d.Engine.At(at, func() {
		now := d.Engine.Now()
		if fn(now) {
			d.every(now+jiffy, fn)
		}
	})
}

// stepSender is the sender's tick: the application feeds the window,
// the machine's Tick runs when due, and its output is routed.
func (d *driver[N]) stepSender(now sim.Time) {
	d.snd.feed(now)
	if d.due(now, d.snd.M.NextWake) {
		d.snd.M.Tick(now)
	}
	d.link.routeSender(now)
}

// step is one receiver host's tick: the machine's Advance when due, the
// application's reads, and its output routed. A crashed host sits it
// out.
func (d *driver[N]) step(nd N, now sim.Time) {
	r := nd.rec()
	if r.crashed {
		return
	}
	if d.due(now, r.M.NextWake) {
		r.M.Advance(now)
	}
	d.settle(nd, now)
}

// settle follows every receiver machine entry point: the application
// reads, and the machine's output is routed.
func (d *driver[N]) settle(nd N, now sim.Time) {
	if nd.rec().drain(now, d.readBuf, d.stream) {
		d.finished++
	}
	d.link.route(nd, now)
}

// deliver is a packet from `from` reaching receiver host nd: unless the
// fault plane stops it, it waits for the host's CPU, then the machine
// handles it.
func (d *driver[N]) deliver(nd N, from packet.NodeID, p *packet.Packet) {
	r := nd.rec()
	now := d.Engine.Now()
	if d.blocked(now, from, r.id) {
		return
	}
	if done := d.link.cpu(r.id, now, len(p.Payload)); done > now {
		d.Engine.At(done, func() {
			if !r.crashed {
				d.handle(nd, from, p)
			}
		})
		return
	}
	d.handle(nd, from, p)
}

// handle is receiver host nd's machine taking a packet, then settling.
func (d *driver[N]) handle(nd N, from packet.NodeID, p *packet.Packet) {
	now := d.Engine.Now()
	nd.rec().M.HandleFrom(now, from, p)
	d.settle(nd, now)
}

// toSender is a packet from receiver `from` reaching the sender: unless
// the fault plane stops it, it waits for the sender's CPU, then the
// machine handles it.
func (d *driver[N]) toSender(from packet.NodeID, p *packet.Packet) {
	now := d.Engine.Now()
	if d.blocked(now, from, 0) {
		return
	}
	d.SenderFeedback++
	if done := d.link.cpu(0, now, len(p.Payload)); done > now {
		d.Engine.At(done, func() { d.senderHandle(from, p) })
		return
	}
	d.senderHandle(from, p)
}

// senderHandle is the sender machine taking a packet, then its output
// routed.
func (d *driver[N]) senderHandle(from packet.NodeID, p *packet.Packet) {
	now := d.Engine.Now()
	d.snd.M.HandlePacket(now, from, p)
	d.link.routeSender(now)
}

// done reports whether the whole transfer has completed: the sender is
// done and every host still up has read the FIN.
func (d *driver[N]) done() bool {
	return d.snd.M.Done() && d.finished+d.down == len(d.nodes)
}

// FaultDrops returns how many packets the fault plane's loss bursts
// destroyed (zero without a plan).
func (d *driver[N]) FaultDrops() int64 {
	if d.faults == nil {
		return 0
	}
	return d.faults.Drops
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
// elapses. Call it once, after every host is added.
func (d *driver[N]) Run(limit sim.Time) Result {
	if d.snd == nil {
		panic("netsim: no sender")
	}
	d.faults.install(d.Engine, d.crash, d.restart)
	d.link.start()
	for d.Engine.Now() < limit && !d.done() {
		if !d.Engine.Step() {
			break
		}
	}
	res := Result{Completed: true, NICDrops: d.NICDrops, RouterDrops: d.RouterDrops}
	for _, nd := range d.nodes {
		res.add(nd.rec())
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
