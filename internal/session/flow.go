package session

import (
	"math"
	"sync"

	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Kind distinguishes flow directions.
type Kind int

const (
	// KindSender flows multicast a stream to a group.
	KindSender Kind = iota
	// KindReceiver flows read a stream from a group.
	KindReceiver
)

func (k Kind) String() string {
	if k == KindReceiver {
		return "receiver"
	}
	return "sender"
}

// FlowOption sets a field of a raw-config flow's FlowSpec at open time;
// WithFec is the only one. Like OpenSender, it is exported for
// benchmark/ alone; everything else opens from a FlowSpec.
type FlowOption func(*FlowSpec)

// defaultFecGroupSize is the parity group size K used when FEC is
// enabled without an explicit K.
const defaultFecGroupSize = 8

// FecConfig enables per-flow forward error correction: the sender
// multicasts one best-effort XOR parity packet per K data packets, and
// the receiver repairs single losses locally before falling back to a
// NAK. Both ends of a flow must agree on it.
type FecConfig struct {
	// Enabled turns the parity pipeline on.
	Enabled bool
	// K is the parity group size; 0 means 8. Clamped to
	// [2, fec.MaxGroup] by the machines.
	K int
}

// groupSize resolves the effective group size of an enabled config.
func (c FecConfig) groupSize() int {
	if c.K <= 0 {
		return defaultFecGroupSize
	}
	return c.K
}

// WithFec sets the flow's forward-error-correction parameters. On a
// sender it drives the parity pipeline; on a receiver it arms local
// parity recovery and defers first NAKs long enough for parity to win
// the race. FlowSpec.Fec sets it; it is exported for benchmark/ alone.
func WithFec(fc FecConfig) FlowOption {
	return func(sp *FlowSpec) { sp.Fec = fc }
}

// anyFlow is what the session loops drive: either a *SenderFlow or a
// *ReceiverFlow.
type anyFlow interface {
	base() *flow
	// handleBatch feeds one receive batch's worth of packets to the
	// protocol machine under a single flow-lock acquisition, staging
	// outgoing traffic once at the end. The flow takes ownership of
	// the envelopes' packets and releases every packet the machine did
	// not retain; retained data packets (the receive window's
	// hold-until-release buffering) are released when the application
	// consumes them.
	handleBatch(now sim.Time, env []transport.Envelope)
	snapshot() FlowSnapshot
	drainClose() error
	abort()
}

// flow is the state shared by both flow kinds. The mutex serializes
// the sans-I/O machine against the driver, the receive loop, and
// the application; cond wakes blocked Write/Read/Close callers.
type flow struct {
	sess *Session
	tr   transport.Transport
	id   int
	// spec is what the flow was opened with: its kind, label, port
	// (LocalPort), FEC and multicast group on a shared GroupTransport.
	// Immutable after open, so the receive and send paths read it
	// without the flow lock.
	spec   FlowSpec
	weight float64

	mu   sync.Mutex
	cond *sync.Cond
	err  error

	// The machine's NextWake, its Tick or Advance and the flow's
	// flushLocked; the flow's entry in the wake heap and what settle last
	// booked there, so that an entry point that leaves the deadline where
	// it was takes no session-wide lock (7 % of the CPU per MB on the
	// 64-flow workload); when the timer last woke the flow, and the
	// machine's Wakeups counter. All but due guarded by mu.
	next     func() (sim.Time, bool)
	run      func(now sim.Time)
	flush    func()
	due      deadline
	booked   sim.Time
	bookedOK bool
	lastWake sim.Time
	wakeups  *int64
	detached bool
}

func (f *flow) init(s *Session, tr transport.Transport, sp FlowSpec) {
	f.sess, f.tr, f.spec = s, tr, sp
	f.due = deadline{idx: -1, fire: f.wake}
	f.weight = 1
	if sp.Weight > 0 {
		f.weight = sp.Weight
	}
	f.cond = sync.NewCond(&f.mu)
}

// stage appends one outgoing packet to the session's send queue. Caller
// holds f.mu and sess.sendMu. The header is copied by value so later
// machine mutation cannot race the poller's send; windowed packets
// (still owned by the send window) get a covering Retain, every other
// packet transfers its ownership to the poller's post-send Put.
func (f *flow) stage(p *packet.Packet, windowed, multicast bool, to packet.NodeID) {
	if windowed {
		packet.Retain(p)
	}
	s := f.sess
	s.sendq = append(s.sendq, outItem{
		tr:        f.tr,
		hdr:       p.Header,
		payload:   p.Payload,
		owner:     p,
		multicast: multicast,
		to:        to,
		group:     f.spec.Group,
	})
}

func (f *flow) base() *flow { return f }

// settle is how every machine entry point ends: run the machine if a
// deadline of its own has come due, ship what it queued, wake blocked
// callers and book its next deadline with the driver. A failed flow's
// machine is quiescent — its buffers may be back in the pool — and like
// a detached one is neither run nor booked. Caller holds f.mu.
func (f *flow) settle(now sim.Time) {
	at, ok := sim.Time(0), false
	if f.err == nil && !f.detached {
		if at, ok = f.next(); ok && at <= now {
			f.run(now)
			at, ok = f.next()
		}
	}
	f.flush()
	f.cond.Broadcast()
	// The timer wakes one flow at most once a quantum; whatever lands in
	// between rides on the entry point that brought it.
	if at = max(at, f.lastWake+quantum); ok != f.bookedOK || ok && at != f.booked {
		f.booked, f.bookedOK = at, ok
		f.sess.book(&f.due, at, ok)
	}
}

// wake is the flow's deadline coming due on the driver.
func (f *flow) wake(now sim.Time) {
	f.mu.Lock()
	f.bookedOK = false // the driver popped the entry
	if f.err == nil {
		*f.wakeups++
		f.lastWake = now
	}
	f.settle(now)
	f.mu.Unlock()
}

// fail records a driver-side error (transport closed, abort) and wakes
// every waiter.
func (f *flow) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// ID returns the flow's session-unique ID.
func (f *flow) ID() int { return f.id }

// SenderFlow is one reliable-multicast sending flow hosted by a
// session. It keeps the blocking Write/Close socket feel of the kernel
// implementation's BSD interface.
type SenderFlow struct {
	flow
	m *sender.Sender

	// governed marks that the session governor owns the rate ceiling;
	// capCeiling is the flow's own configured ceiling (SetCeiling at
	// runtime, else the open-time rate config), which bounds the flow
	// even under a larger governor share.
	governed   bool
	capCeiling float64
	// closed marks that Close ended the stream: a Write after it (or
	// blocked across it) has nothing to append to.
	closed bool
}

// govHeadroom is the growth room the governor leaves a flow pacing
// below its ceiling: the ceiling tracks twice the current rate — one
// slow-start doubling ahead — so ramp-up is never throttled, while the
// rest of the flow's unused share is donated to still-hungry flows.
const govHeadroom = 2

// demand samples the flow's share request for the governor and reports
// whether the flow still participates in the budget. With the governor
// off it hands a governed flow its own ceiling back.
func (f *SenderFlow) demand(now sim.Time, governed bool) (shareReq, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil || f.m.Done() {
		return shareReq{}, false
	}
	if !governed {
		if f.governed {
			f.m.SetMaxRate(f.capCeiling)
			f.governed = false
		}
		return shareReq{}, false
	}
	rate := f.m.Rate(now)
	demand := govHeadroom * rate
	if rate >= 0.95*f.m.MaxRate() {
		// Pacing at the ceiling: appetite unknown, stay hungry.
		demand = math.Inf(1)
	}
	demand = max(demand, f.m.MinRate())
	if f.capCeiling > 0 {
		demand = min(demand, f.capCeiling)
	}
	return shareReq{Weight: f.weight, Demand: demand}, true
}

// setShare applies the governor's allocation — never above the demand
// the flow's own ceiling bounded — as the flow's rate ceiling.
func (f *SenderFlow) setShare(share float64) {
	f.mu.Lock()
	if f.err == nil && share > 0 {
		f.m.SetMaxRate(share)
		f.governed = true
	}
	f.mu.Unlock()
}

func (f *SenderFlow) handleBatch(now sim.Time, env []transport.Envelope) {
	f.mu.Lock()
	if f.err != nil {
		f.mu.Unlock()
		transport.ReleaseEnvelopes(env)
		return
	}
	for i := range env {
		f.m.HandlePacket(now, env[i].From, env[i].Pkt)
	}
	// Release on feedback without transmitting: when an UPDATE just
	// completed the membership picture for the window front, this frees
	// window space (and wakes a blocked Write) at once, and leaves the
	// next burst to its own deadline.
	f.m.TryRelease(now)
	f.settle(now)
	f.mu.Unlock()
	// The sender machine never retains feedback packets.
	transport.ReleaseEnvelopes(env)
}

func (f *SenderFlow) flushLocked() {
	outs := f.m.Outgoing()
	if len(outs) == 0 {
		return
	}
	s := f.sess
	s.sendMu.Lock()
	for _, o := range outs {
		f.stage(o.Pkt, o.Windowed, o.Dest.Multicast, o.Dest.Node)
	}
	s.sendMu.Unlock()
	s.sendStaged()
	// The headers are staged by value and the packets covered by their
	// own references, so the drained slice can go straight back.
	f.m.Recycle(outs)
}

// SetWeight re-points the flow's fair-share weight under the session
// budget at runtime; non-positive weights are ignored.
func (f *SenderFlow) SetWeight(w float64) {
	if w <= 0 {
		return
	}
	f.mu.Lock()
	f.weight = w
	f.mu.Unlock()
}

// SetCeiling re-points the flow's own rate ceiling at runtime, in
// bytes/second. Ungoverned flows apply it directly; under a session
// budget it caps the flow's governor share and demand, so the flow
// never paces above it even when the budget would allow more.
func (f *SenderFlow) SetCeiling(bytesPerSec float64) {
	if bytesPerSec <= 0 {
		return
	}
	f.mu.Lock()
	f.capCeiling = bytesPerSec
	if !f.governed {
		f.m.SetMaxRate(bytesPerSec)
	}
	f.mu.Unlock()
}

// Weight returns the flow's current fair-share weight.
func (f *SenderFlow) Weight() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.weight
}

// Write sends b on the multicast stream, blocking while the send
// window is full. It returns len(b) unless the flow fails, or ErrClosed
// once Close has ended the stream.
func (f *SenderFlow) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for n < len(b) {
		if f.closed {
			return n, ErrClosed
		}
		if f.err != nil {
			return n, f.err
		}
		now := f.sess.now()
		w := f.m.Write(now, b[n:])
		n += w
		if w > 0 {
			// Ship what fit if the bucket already funds it.
			f.settle(now)
			continue
		}
		f.cond.Wait()
	}
	return n, nil
}

// Close marks the end of the stream and blocks until every receiver is
// known to hold all data (the send window fully releases). The flow
// stays bound — late feedback is still handled and its counters remain
// in Snapshot — until Detach or Session.Close.
func (f *SenderFlow) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		// Aborted (or transport-failed): the machine is quiescent and
		// its buffers are back in the pool — queueing a FIN into the
		// dead window would strand the packet.
		return f.err
	}
	now := f.sess.now()
	f.closed = true
	f.m.Close(now)
	// The FIN is due at once: on a short stream it is the packet the
	// receivers' end-of-stream (and so the final UPDATE that drains the
	// window) is waiting on.
	f.settle(now)
	for !f.m.Done() && f.err == nil {
		f.cond.Wait()
	}
	return f.err
}

// Abort tears the flow down without waiting for delivery, returning
// its buffered window packets to the shared pool. In-flight sends the
// poller staged before the abort finish on their own references.
func (f *SenderFlow) Abort() {
	f.mu.Lock()
	if f.err == nil {
		f.err = ErrAborted
	}
	f.m.ReleaseBuffers()
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Detach unbinds the flow from the session, freeing its port and
// dropping it from Snapshot.
func (f *SenderFlow) Detach() { f.sess.detach(f) }

// Stats returns the flow's live protocol counters; use Snapshot for a
// consistent copy while the flow is running.
func (f *SenderFlow) Stats() *stats.Sender { return f.m.Stats() }

// Members returns the number of receivers currently joined.
func (f *SenderFlow) Members() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m.Members()
}

// Done reports whether the stream is closed and fully released.
func (f *SenderFlow) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m.Done()
}

func (f *SenderFlow) snapshot() FlowSnapshot {
	f.mu.Lock()
	f.m.RefreshGauges(f.sess.now())
	cp := f.m.Stats().Snapshot()
	done := f.m.Done()
	w := f.weight
	f.mu.Unlock()
	return FlowSnapshot{
		ID: f.id, Label: f.spec.Label, Kind: KindSender, Port: f.spec.LocalPort, Group: f.spec.Group,
		Weight: w, Done: done, Sender: &cp,
	}
}

func (f *SenderFlow) drainClose() error { return f.Close() }
func (f *SenderFlow) abort()            { f.Abort() }

// ReceiverFlow is one reliable-multicast receiving flow hosted by a
// session, implementing io.Reader semantics: Read blocks for data and
// returns io.EOF at the end of the stream.
type ReceiverFlow struct {
	flow
	m *receiver.Receiver
}

func (f *ReceiverFlow) handleBatch(now sim.Time, env []transport.Envelope) {
	f.mu.Lock()
	if f.err != nil {
		// An aborted flow's window may already have released its
		// buffers; feeding it would re-retain into a dead machine.
		f.mu.Unlock()
		transport.ReleaseEnvelopes(env)
		return
	}
	for i := range env {
		// The source address rides along so a repair head can attribute
		// downstream member feedback (JOIN/UPDATE/LEAVE/HEAD_NAK).
		retained, _ := f.m.HandleFrom(now, env[i].From, env[i].Pkt)
		if !retained {
			transport.PutPacket(env[i].Pkt)
		}
		env[i] = transport.Envelope{}
	}
	f.settle(now)
	f.mu.Unlock()
}

func (f *ReceiverFlow) flushLocked() {
	mc, addr := f.m.OutgoingMulticast(), f.m.OutgoingAddressed()
	// Unicast feedback stays queued in the machine until it has learned
	// the sender's node (receiver.Sender).
	var uc []*packet.Packet
	sender, known := f.m.Sender()
	if known {
		uc = f.m.Outgoing()
	}
	if len(mc)+len(addr)+len(uc) == 0 {
		return
	}
	s := f.sess
	s.sendMu.Lock()
	for _, p := range mc {
		f.stage(p, false, true, 0)
	}
	// Repair-plane traffic (leaf↔head) carries its own destination.
	for _, a := range addr {
		f.stage(a.Pkt, false, false, a.To)
	}
	for _, p := range uc {
		f.stage(p, false, false, sender)
	}
	s.sendMu.Unlock()
	s.sendStaged()
}

// Read delivers in-order stream bytes, blocking until data is
// available. It returns io.EOF once the whole stream has been
// consumed.
func (f *ReceiverFlow) Read(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		now := f.sess.now()
		n, err := f.m.Read(now, b)
		f.settle(now) // end-of-stream queues UPDATE+LEAVE
		if n > 0 || err != nil {
			return n, err
		}
		if f.err != nil {
			return 0, f.err
		}
		f.cond.Wait()
	}
}

// Close tears the receiving flow down; pending and future Reads return
// ErrClosed (after any already-buffered in-order data). A flow closed
// before the end of its stream leaves the group, so its sender releases
// past it instead of waiting on a receiver that reads no more. The flow
// stays in Snapshot until Detach or Session.Close.
func (f *ReceiverFlow) Close() error {
	f.mu.Lock()
	if f.err == nil {
		f.err = ErrClosed
		f.m.Leave(f.sess.now())
		f.flush()
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	return nil
}

// Detach unbinds the flow from the session, freeing its port and
// dropping it from Snapshot.
func (f *ReceiverFlow) Detach() { f.sess.detach(f) }

// Stats returns the flow's live protocol counters; use Snapshot for a
// consistent copy while the flow is running.
func (f *ReceiverFlow) Stats() *stats.Receiver { return f.m.Stats() }

// Done reports whether the whole stream has been read and the LEAVE
// acknowledged.
func (f *ReceiverFlow) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m.Done()
}

func (f *ReceiverFlow) snapshot() FlowSnapshot {
	f.mu.Lock()
	cp := f.m.Stats().Snapshot()
	done := f.m.Done()
	f.mu.Unlock()
	return FlowSnapshot{
		ID: f.id, Label: f.spec.Label, Kind: KindReceiver, Port: f.spec.LocalPort, Group: f.spec.Group,
		Done: done, Receiver: &cp,
	}
}

func (f *ReceiverFlow) drainClose() error { return f.Close() }

// abort tears the flow down and returns its buffered (unread) packets
// to the shared pool, unlike Close, which keeps them readable.
func (f *ReceiverFlow) abort() {
	f.mu.Lock()
	if f.err == nil {
		f.err = ErrClosed
	}
	f.m.ReleaseBuffers()
	f.cond.Broadcast()
	f.mu.Unlock()
}
