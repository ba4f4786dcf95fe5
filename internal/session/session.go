// Package session multiplexes many concurrent H-RMC flows — senders
// and receivers across independent multicast groups — inside one
// process, the way the paper's kernel implementation multiplexes all
// AF_HRMC sockets over one clock and one timer wheel.
//
// One Session owns:
//
//   - a single deadline-driven driver (wake.go): a min-heap of the
//     flows' own NextWake deadlines, booked at the end of every machine
//     entry point, and one goroutine sleeping until the earliest;
//   - one batched receive loop per transport, with a port-based
//     demultiplexer that drains
//     a whole batch, groups envelopes by destination port, and hands
//     each flow its slice under one flow-lock acquisition per batch —
//     the 20-byte H-RMC header carries src/dst ports end to end, so
//     flows sharing a transport need no extra framing. A flow bound
//     to port 0 acts as the wildcard and receives every packet with
//     no exact port binding, so a lone flow on its transport needs no
//     ports. Packets bound for no flow are recycled into the shared
//     transport packet pool;
//   - an optional aggregate bandwidth budget: a weighted fair-share
//     governor re-apportions the configured line rate among the
//     sender flows still transmitting, scaling each flow's
//     internal/rate ceiling so the sum never exceeds the budget —
//     mirroring how the kernel shared one NIC among all sockets.
//
// Lifecycle: OpenSenderFlow/OpenReceiverFlow bind the flows FlowSpecs
// describe, each flow's Close drains gracefully (a sender blocks until
// every receiver is known to hold the stream), Snapshot reports
// per-flow and aggregate counters at any time, and Session.Close drains
// every flow and shuts the loops and transports down.
package session

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Errors returned by session operations.
var (
	// ErrClosed is returned by operations on a closed session or flow.
	ErrClosed = errors.New("session: closed")
	// ErrAborted is returned by operations on an aborted flow.
	ErrAborted = errors.New("session: connection aborted")
	// ErrPortInUse is returned when a flow's local port is already
	// bound on the same transport.
	ErrPortInUse = errors.New("session: local port already bound on transport")
)

// Config parametrizes a Session.
type Config struct {
	// Budget, when positive, caps the aggregate send rate across all
	// sender flows in bytes/second. Every jiffy the demand-aware
	// fair-share governor water-fills it among the flows still sending,
	// proportional to their weights (FlowSpec.Weight): flows pacing below
	// their ceiling donate the slack to still-hungry flows. Shares are
	// floored at each flow's rate-control MinRate — the
	// one-packet-per-jiffy pacing floor — so a budget below
	// len(flows)*MinRate cannot be fully honored. SetBudget adjusts the
	// budget at runtime.
	Budget float64
}

// Session hosts many concurrent H-RMC flows over shared driver loops.
// All methods are safe for concurrent use.
type Session struct {
	cfg   Config
	start time.Time

	mu     sync.Mutex
	loops  map[transport.Transport]*recvLoop
	flows  []anyFlow
	nextID int
	closed bool
	wakes  wakes    // the deadline heap the driver sleeps on
	gov    deadline // the governor's entry in it

	// sendq is the one outgoing staging queue: every flow's flushLocked
	// appends its ready packets straight onto it under sendMu (header by
	// value, payload by reference, pool ownership covered by Retain), and
	// the one send poller swaps the slice out and ships it in
	// per-transport SendBatch calls. Goroutine count is O(transports),
	// not O(flows), and each transport's packets keep their order.
	sendMu    sync.Mutex
	sendq     []outItem
	sendReady chan struct{} // capacity 1: "sendq may be non-empty"

	quit chan struct{}
	// pollerDone closes when the send poller has shipped its final drain;
	// Close waits on it before closing transports so staged farewells (a
	// receiver's EOF-time UPDATE+LEAVE) reach the wire.
	pollerDone chan struct{}
	wg         sync.WaitGroup
}

// outItem is one staged outgoing packet. The header is copied by value
// under the flow lock, so later machine mutation (retransmission Tries
// bumps) cannot race the send; the payload is aliased, kept alive by
// the owner reference the poller releases after the send.
type outItem struct {
	tr        transport.Transport
	hdr       packet.Header
	payload   []byte
	owner     *packet.Packet
	multicast bool
	to        packet.NodeID
	group     transport.GroupID
}

// New creates a session and starts its driver.
func New(cfg Config) *Session {
	s := &Session{
		cfg:        cfg,
		start:      time.Now(),
		loops:      make(map[transport.Transport]*recvLoop),
		sendReady:  make(chan struct{}, 1),
		quit:       make(chan struct{}),
		pollerDone: make(chan struct{}),
	}
	s.wakes.sleep.L = &s.wakes.mu
	s.gov = deadline{idx: -1, fire: s.govern}
	s.wg.Add(1)
	go s.runWakes()
	go s.runSendPoller()
	return s
}

// now is the session clock every flow machine runs on.
func (s *Session) now() sim.Time { return sim.Time(time.Since(s.start)) }

// sendStaged wakes the send poller after a flow staged packets.
func (s *Session) sendStaged() {
	select {
	case s.sendReady <- struct{}{}:
	default:
	}
}

// runSendPoller is the session's send driver: it swaps the staged queue
// for its own emptied slice, groups consecutive items by transport, and
// ships each run through one SendBatch call. SendBatch only borrows its
// envelopes for the call, so the poller rebuilds them from scratch
// packets (header by value, payload aliased) and releases every item's
// owner reference right after the send.
func (s *Session) runSendPoller() {
	defer close(s.pollerDone)
	var local []outItem
	var env []transport.Envelope
	var pkts []packet.Packet
	drain := func() {
		s.sendMu.Lock()
		local, s.sendq = s.sendq, local[:0]
		s.sendMu.Unlock()
		env, pkts = sendItems(local, env, pkts)
		clear(local)
	}
	for {
		select {
		case <-s.sendReady:
			drain()
		case <-s.quit:
			// Ship, don't drop: drained flows stage their farewells
			// (UPDATE+LEAVE, FIN feedback) just before quit, and the
			// transports stay open until pollerDone closes. Whatever the
			// receive loops stage after this, end discards once they exit.
			drain()
			return
		}
	}
}

// destOrder is the coalescing sort key: staged items of one transport
// run are stably grouped by wire destination so the UDP writer sees
// maximal consecutive same-destination runs — what UDP GSO fuses into
// supersegments. The sort is stable, so each destination's packet
// order (a flow's DATA sequence, a head's repair order) is preserved;
// cross-destination order carries no guarantee worth preserving over
// UDP.
func destOrder(a, b *outItem) bool {
	if a.multicast != b.multicast {
		return a.multicast // multicast DATA first, then unicast
	}
	if a.group != b.group {
		return a.group < b.group
	}
	if !a.multicast && a.to != b.to {
		return a.to < b.to
	}
	return false
}

// sendItems ships staged items, one SendBatch per consecutive
// same-transport run (each run stably regrouped by destination so GSO
// coalescing finds its runs), and drops each owner reference after its
// send.
func sendItems(items []outItem, env []transport.Envelope, pkts []packet.Packet) ([]transport.Envelope, []packet.Packet) {
	i := 0
	for i < len(items) {
		j := i + 1
		for j < len(items) && items[j].tr == items[i].tr {
			j++
		}
		n := j - i
		if n > 2 {
			run := items[i:j]
			sort.SliceStable(run, func(a, b int) bool { return destOrder(&run[a], &run[b]) })
		}
		if cap(env) < n {
			env = make([]transport.Envelope, n)
			pkts = make([]packet.Packet, n)
		}
		env, pkts = env[:n], pkts[:n]
		for k := 0; k < n; k++ {
			it := &items[i+k]
			pkts[k] = packet.Packet{Header: it.hdr, Payload: it.payload}
			env[k] = transport.Envelope{Pkt: &pkts[k], Multicast: it.multicast, To: it.to, Group: it.group}
		}
		_ = items[i].tr.SendBatch(env)
		for k := 0; k < n; k++ {
			packet.Put(items[i+k].owner)
			pkts[k] = packet.Packet{}
			env[k] = transport.Envelope{}
		}
		i = j
	}
	return env, pkts
}

// discardSendq empties the staged queue without sending, releasing
// every owner reference.
func (s *Session) discardSendq() {
	s.sendMu.Lock()
	q := s.sendq
	s.sendq = nil
	s.sendMu.Unlock()
	for i := range q {
		packet.Put(q[i].owner)
	}
	clear(q)
}

// SetBudget re-points the aggregate bandwidth budget at runtime, in
// bytes/second. Zero or negative disables the governor: every governed
// flow's ceiling is restored to its own configured (or SetCeiling)
// value.
func (s *Session) SetBudget(bytesPerSec float64) {
	s.mu.Lock()
	s.cfg.Budget = bytesPerSec
	s.mu.Unlock()
	s.book(&s.gov, s.now(), true)
}

// Budget returns the current aggregate bandwidth budget in
// bytes/second (zero when the governor is off).
func (s *Session) Budget() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Budget
}

// recvBatchSize is how many envelopes the per-transport receive loop
// drains per RecvBatch call: one batch costs one demux-lock
// acquisition plus one flow-lock acquisition per distinct destination
// flow, however many packets it carries.
const recvBatchSize = 64

// recvLoop is the per-transport receive driver plus its demultiplexer.
type recvLoop struct {
	tr     transport.Transport
	mu     sync.Mutex
	byPort map[uint16]anyFlow
}

// lookupBatch resolves each envelope's destination port to its owning
// flow — exact binding first, then the port-0 wildcard — under a
// single demux-lock acquisition for the whole batch. flows[i] is nil
// for envelopes no flow is bound to.
func (l *recvLoop) lookupBatch(env []transport.Envelope, flows []anyFlow) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range env {
		f, ok := l.byPort[env[i].Pkt.DstPort]
		if !ok {
			f = l.byPort[0]
		}
		flows[i] = f
	}
}

func (l *recvLoop) bind(port uint16, f anyFlow) error {
	l.mu.Lock()
	if _, taken := l.byPort[port]; taken {
		l.mu.Unlock()
		return ErrPortInUse
	}
	l.byPort[port] = f
	l.mu.Unlock()
	l.refreshFilter()
	return nil
}

func (l *recvLoop) unbind(port uint16, f anyFlow) {
	l.mu.Lock()
	if l.byPort[port] == f {
		delete(l.byPort, port)
	}
	l.mu.Unlock()
	l.refreshFilter()
}

// refreshFilter pushes the current port-binding table down to the
// transport as an early-demux filter (see transport.FilteredTransport):
// on a shared hub, packets for ports this session never bound are then
// discarded at the sender before being cloned or queued. A wildcard
// (port 0) binding clears the filter — everything must be delivered.
// Transports without filter support demux-drop as before.
func (l *recvLoop) refreshFilter() {
	ft, ok := l.tr.(transport.FilteredTransport)
	if !ok {
		return
	}
	l.mu.Lock()
	if _, wild := l.byPort[0]; wild {
		l.mu.Unlock()
		ft.SetInboundFilter(nil)
		return
	}
	var ports [1024]uint64 // 65536-port bitset snapshot
	for p := range l.byPort {
		ports[p>>6] |= 1 << (p & 63)
	}
	l.mu.Unlock()
	ft.SetInboundFilter(func(h *packet.Header) bool {
		return ports[h.DstPort>>6]&(1<<(h.DstPort&63)) != 0
	})
}

func (l *recvLoop) bound() []anyFlow {
	l.mu.Lock()
	defer l.mu.Unlock()
	fs := make([]anyFlow, 0, len(l.byPort))
	for _, f := range l.byPort {
		fs = append(fs, f)
	}
	return fs
}

// flowGroup is one flow's slice of a receive batch, in arrival order.
type flowGroup struct {
	f   anyFlow
	env []transport.Envelope
}

// runRecv is the one receive loop a transport gets, demuxing every
// arriving batch to its flows: drain a full batch, resolve all ports
// under one demux-lock acquisition, group envelopes by flow, and hand
// each flow its slice in one flow-lock acquisition per batch instead
// of one per packet. Packets no flow is bound to go straight back to
// the shared packet pool — on a multicast hub most deliveries to an
// endpoint belong to other groups, so this drop-path recycling is what
// keeps the hot path allocation-free. A transport error fails every
// flow bound to it, unblocking their waiters.
func (s *Session) runRecv(l *recvLoop) {
	defer s.wg.Done()
	env := make([]transport.Envelope, recvBatchSize)
	flows := make([]anyFlow, recvBatchSize)
	var groups []flowGroup
	for {
		n, err := l.tr.RecvBatch(env)
		if err != nil {
			for _, f := range l.bound() {
				f.base().fail(err)
			}
			return
		}
		now := s.now()
		l.lookupBatch(env[:n], flows[:n])
		groups = groups[:0]
		for i := 0; i < n; i++ {
			f := flows[i]
			flows[i] = nil
			if f == nil {
				transport.PutPacket(env[i].Pkt)
				env[i] = transport.Envelope{}
				continue
			}
			// On a shared group transport, ports are only unique within
			// one daemon: a group-tagged arrival that does not match the
			// flow's own group is a cross-group stray — recycle it
			// rather than feeding a foreign group's packet to the
			// machine. (A flow's spec is immutable after open.)
			if fg := f.base().spec.Group; fg != 0 && env[i].Group != 0 && env[i].Group != fg {
				transport.PutPacket(env[i].Pkt)
				env[i] = transport.Envelope{}
				continue
			}
			gi := -1
			for j := range groups {
				if groups[j].f == f {
					gi = j
					break
				}
			}
			if gi < 0 {
				// Reuse a truncated slot's envelope capacity when one
				// is available; grow otherwise.
				if len(groups) < cap(groups) {
					groups = groups[:len(groups)+1]
					groups[len(groups)-1].f = f
				} else {
					groups = append(groups, flowGroup{f: f})
				}
				gi = len(groups) - 1
			}
			groups[gi].env = append(groups[gi].env, env[i])
			env[i] = transport.Envelope{}
		}
		for j := range groups {
			groups[j].f.handleBatch(now, groups[j].env)
			for i := range groups[j].env {
				groups[j].env[i] = transport.Envelope{}
			}
			groups[j].env = groups[j].env[:0]
			groups[j].f = nil
		}
	}
}

// attach registers a flow: it starts the transport's receive loop on
// first use and binds the flow's local port in the demultiplexer.
func (s *Session) attach(f anyFlow) error {
	b := f.base()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	l, ok := s.loops[b.tr]
	if !ok {
		l = &recvLoop{tr: b.tr, byPort: make(map[uint16]anyFlow)}
		s.loops[b.tr] = l
		s.wg.Add(1)
		go s.runRecv(l)
	}
	if err := l.bind(b.spec.LocalPort, f); err != nil {
		return err
	}
	b.id = s.nextID
	s.nextID++
	s.flows = append(s.flows, f)
	if _, sender := f.(*SenderFlow); sender && s.cfg.Budget > 0 {
		s.book(&s.gov, s.now(), true) // a sender to govern
	}
	return nil
}

// detach unbinds a flow from the demultiplexer, the wake heap and the
// flow list; its counters leave Snapshot with it.
func (s *Session) detach(f anyFlow) {
	b := f.base()
	b.mu.Lock()
	b.detached = true
	b.settle(s.now())
	b.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.loops[b.tr]; l != nil {
		l.unbind(b.spec.LocalPort, f)
	}
	for i, g := range s.flows {
		if g == f {
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
			break
		}
	}
}

// liveSender stamps what a live session sets on a sender machine: the
// driver's quantum, and a one-round-trip MINBUF hold for an H-RMC flow
// with a known population that left it unset. Early release already
// frees what every member holds, so there the hold only decides when to
// probe; unknown populations and RMC keep the paper's late-joiner grace.
func liveSender(cfg sender.Config) sender.Config {
	cfg.Rate.Quantum = quantum
	if cfg.Mode == sender.HRMC && cfg.ExpectedReceivers > 0 && cfg.MinBufRTTs <= 0 {
		cfg.MinBufRTTs = 1
	}
	return cfg
}

// OpenSender opens a sending flow over tr from a raw machine config;
// it is exported for benchmark/ alone, and everything else opens
// through OpenSenderFlow. cfg.LocalPort is the flow's demux binding (0
// binds the wildcard slot) and its receivers' RemotePort.
func (s *Session) OpenSender(tr transport.Transport, cfg sender.Config, opts ...FlowOption) (*SenderFlow, error) {
	return s.openSender(tr, cfg, rawSpec(KindSender, cfg.LocalPort, opts))
}

// openSender is the one way a sending flow comes up: cfg drives the
// machine, sp's flow fields (label, port, weight, group, FEC) the flow.
func (s *Session) openSender(tr transport.Transport, cfg sender.Config, sp FlowSpec) (*SenderFlow, error) {
	cfg = liveSender(cfg)
	if sp.Fec.Enabled {
		cfg.FECGroupSize = sp.Fec.groupSize()
	}
	f := &SenderFlow{m: sender.New(cfg)}
	f.init(s, tr, sp)
	f.next, f.run, f.flush, f.wakeups = f.m.NextWake, f.m.Tick, f.flushLocked, &f.m.Stats().Wakeups
	f.capCeiling = f.m.MaxRate()
	if err := s.attach(f); err != nil {
		return nil, err
	}
	return f, nil
}

// OpenReceiver opens a receiving flow over tr from a raw machine
// config, for benchmark/ alone (see OpenSender). cfg.LocalPort is the
// flow's demux binding (0 binds the wildcard slot) and its sender's
// RemotePort; a zero cfg.LocalAddr defaults to the transport's node ID.
func (s *Session) OpenReceiver(tr transport.Transport, cfg receiver.Config, opts ...FlowOption) (*ReceiverFlow, error) {
	return s.openReceiver(tr, cfg, rawSpec(KindReceiver, cfg.LocalPort, opts))
}

// openReceiver is the one way a receiving flow comes up (see
// openSender).
func (s *Session) openReceiver(tr transport.Transport, cfg receiver.Config, sp FlowSpec) (*ReceiverFlow, error) {
	if cfg.LocalAddr == 0 {
		cfg.LocalAddr = tr.Local()
	}
	// The batched receive loop feeds the machine pool-owned packets
	// exclusively, so retained data can recycle on in-order release —
	// including under FEC/local recovery, whose group cache keeps its
	// own pool reference per cached packet.
	cfg.RecyclePackets = true
	cfg.Quantum = quantum
	if sp.Fec.Enabled {
		cfg.FECGroupSize = sp.Fec.groupSize()
	}
	f := &ReceiverFlow{m: receiver.New(cfg)}
	f.init(s, tr, sp)
	f.next, f.run, f.flush, f.wakeups = f.m.NextWake, f.m.Advance, f.flushLocked, &f.m.Stats().Wakeups
	if err := s.attach(f); err != nil {
		return nil, err
	}
	return f, nil
}

// FlowSnapshot is one flow's entry in a session snapshot.
type FlowSnapshot struct {
	ID    int
	Label string
	Kind  Kind
	Port  uint16
	// Group is the flow's multicast group tag on a shared
	// GroupTransport (zero on single-group transports).
	Group transport.GroupID
	// Weight is the flow's fair-share weight under a session budget
	// (senders only; zero for receivers).
	Weight float64
	// Done reports stream completion: for a sender, the stream is
	// closed and fully released; for a receiver, fully read.
	Done bool
	// Exactly one of Sender/Receiver is set, an atomically-read copy
	// of the flow's counters taken under the flow lock.
	Sender   *stats.Sender
	Receiver *stats.Receiver
}

// Snapshot is a point-in-time view of every open flow plus aggregate
// totals.
type Snapshot struct {
	Flows []FlowSnapshot
	Total stats.Aggregate
}

// Snapshot copies every open flow's counters (consistently, under each
// flow's lock) and merges the aggregate totals.
func (s *Session) Snapshot() Snapshot {
	s.mu.Lock()
	flows := append([]anyFlow(nil), s.flows...)
	s.mu.Unlock()
	var snap Snapshot
	for _, f := range flows {
		fs := f.snapshot()
		snap.Flows = append(snap.Flows, fs)
		if fs.Sender != nil {
			snap.Total.AddSender(fs.Sender)
		}
		if fs.Receiver != nil {
			snap.Total.AddReceiver(fs.Receiver)
		}
	}
	return snap
}

// Close drains every flow gracefully — sender flows block until the
// stream is fully released to all receivers — then stops the driver,
// closes every bound transport, and waits for the receive loops.
// It returns the first flow drain error, if any.
func (s *Session) Close() error { return s.end(anyFlow.drainClose) }

// Abort tears every flow down without waiting for delivery and shuts
// the session down.
func (s *Session) Abort() {
	s.end(func(f anyFlow) error { f.abort(); return nil })
}

// end is Close and Abort: it ends every flow with endFlow, then stops
// the driver and the poller, closes every bound transport and waits
// for the receive loops. Only the first call does any of it.
func (s *Session) end(endFlow func(anyFlow) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	flows := append([]anyFlow(nil), s.flows...)
	s.mu.Unlock()
	var firstErr error
	for _, f := range flows {
		if err := endFlow(f); err != nil && firstErr == nil && err != ErrClosed {
			firstErr = err
		}
	}
	close(s.quit)
	s.wakes.poke()
	// Let the poller ship everything the flows staged before the
	// transports close underneath it.
	<-s.pollerDone
	s.mu.Lock()
	loops := make([]*recvLoop, 0, len(s.loops))
	for _, l := range s.loops {
		loops = append(loops, l)
	}
	s.mu.Unlock()
	for _, l := range loops {
		_ = l.tr.Close()
	}
	s.wg.Wait()
	// The receive loops may have staged feedback after the poller's
	// exit drain; with every loop stopped the queue is finally quiet.
	s.discardSendq()
	return firstErr
}
