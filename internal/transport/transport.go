// Package transport defines the packet transport the live (real-time)
// protocol drivers run over, plus an in-memory multicast hub for tests
// and examples that need no network at all. The same sans-I/O protocol
// machines also run under internal/netsim; this interface is only for
// wall-clock operation.
//
// The interface is batch-first: implementations move []Envelope batches
// so one syscall or lock acquisition is amortized over many packets,
// every endpoint delivers through the same bounded Inbox, and receive
// paths draw packet buffers from the shared pool (packet.Get/PutPacket).
package transport

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Envelope is one packet in flight with its addressing. On the send
// side To and Multicast select the destination (To is ignored for
// multicast), and Group selects which multicast group of a
// GroupTransport the packet goes to (0 is a single-group endpoint's
// default group); on the receive side From carries the source node ID,
// Group the multicast group the packet arrived on (0 for unicast and
// for a default group), and the destination fields are zero.
type Envelope struct {
	Pkt       *packet.Packet
	From      packet.NodeID
	To        packet.NodeID
	Group     GroupID
	Multicast bool
}

// Transport moves batches of encoded H-RMC packets between one sender
// and many receivers. Implementations must be safe for concurrent use.
// Packet buffers obey the pool ownership rules documented in pool.go:
// RecvBatch transfers ownership of each delivered packet to
// the caller (who may release it with PutPacket); SendBatch borrows
// the packets only for the duration of the call.
type Transport interface {
	// SendBatch transmits every envelope, each to the whole group
	// (multicast) or to one node. It returns the first per-envelope
	// error after attempting the rest, or ErrClosed.
	SendBatch(env []Envelope) error
	// RecvBatch blocks until at least one packet arrives, fills buf
	// with as many as are immediately available (at most len(buf)),
	// and returns the count. It returns ErrClosed after Close.
	RecvBatch(buf []Envelope) (int, error)
	// Local returns this endpoint's node ID.
	Local() packet.NodeID
	// Close shuts the endpoint down and unblocks RecvBatch.
	Close() error
}

// BatchTransport is Transport under the name it had while a per-packet
// interface existed beside it. It remains only because the frozen
// benchmark/ directory spells it; a later benchmark PR drops it.
// Nothing outside benchmark/ uses it.
type BatchTransport = Transport

// Batched returns tr: every transport is batch-first now. It remains
// only because the frozen benchmark/ directory calls it; a later
// benchmark PR drops it. Nothing outside benchmark/ calls it.
func Batched(tr Transport) BatchTransport { return tr }

// InboundFilterFunc inspects a packet header before the transport
// commits resources to delivering it. Returning false discards the
// packet at the source — before cloning or queueing — so the filter
// must be cheap and must not retain the header.
type InboundFilterFunc func(h *packet.Header) bool

// FilteredTransport is implemented by transports that support early
// demultiplexing: the consumer pushes a destination filter down to the
// delivery path, and packets no local flow could accept are discarded
// before they are cloned or queued — the in-memory analogue of NIC
// multicast filtering / the kernel's early demux. internal/session
// installs its port-binding table here, which is what removes the
// O(endpoints²) clone fan-out on a shared hub. Filtering is advisory:
// consumers must still drop unroutable packets themselves.
type FilteredTransport interface {
	// SetInboundFilter installs f as the early-demux predicate; nil
	// restores deliver-everything. Safe for concurrent use with
	// traffic; packets already in flight may bypass a newly installed
	// filter.
	SetInboundFilter(f InboundFilterFunc)
}

// Hub is an in-memory multicast domain: one process, many endpoints.
// Configurable loss and delay make it a convenient harness for
// demonstrating recovery without a real network. Endpoints are
// batch-first: a whole SendBatch takes the hub lock once for
// membership and loss draws, then each target endpoint's inbox lock
// once for the entire batch.
type Hub struct {
	mu  sync.Mutex
	eps map[packet.NodeID]*hubEndpoint // for unicast lookup
	// order holds the endpoints in NodeID order, the order multicast
	// visits its targets in, so a seeded hub draws the same loss for
	// the same target on every run.
	order  []*hubEndpoint
	next   packet.NodeID
	groups map[string]GroupID // group name → dense ID, shared by all endpoints
	nextG  GroupID
	loss   float64
	delay  time.Duration
	rng    *rand.Rand
}

// HubOption configures a Hub.
type HubOption func(*Hub)

// WithLoss makes the hub drop each delivery independently with
// probability p, seeded deterministically. Loss draws happen under the
// hub lock (per envelope, per target), so concurrent batched senders
// share the rng safely.
func WithLoss(p float64, seed int64) HubOption {
	return func(h *Hub) {
		h.loss = p
		h.rng = rand.New(rand.NewSource(seed))
	}
}

// WithDelay adds a fixed one-way delivery delay. Delayed deliveries
// are cloned at send time, so the caller regains ownership of its
// packets as soon as SendBatch returns.
func WithDelay(d time.Duration) HubOption {
	return func(h *Hub) { h.delay = d }
}

// NewHub creates an in-memory multicast domain.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		eps:    make(map[packet.NodeID]*hubEndpoint),
		groups: make(map[string]GroupID),
		nextG:  1,
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Endpoint creates a new endpoint attached to the hub. The returned
// Transport also implements GroupTransport and FilteredTransport.
func (h *Hub) Endpoint() Transport {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	ep := &hubEndpoint{hub: h, id: id, stage: -1, inbox: NewInbox()}
	h.eps[id] = ep
	h.order = append(h.order, ep)
	return ep
}

// delivery is one target endpoint's share of a SendBatch.
type delivery struct {
	t     *hubEndpoint
	items []Envelope
}

type hubEndpoint struct {
	hub *Hub
	id  packet.NodeID

	// stage indexes this endpoint's delivery list while a SendBatch
	// holds the hub lock; -1 between batches. Guarded by hub.mu.
	stage int

	// joined is the endpoint's group membership set (nil until the
	// first Join). Group-addressed multicast (Envelope.Group != 0) is
	// delivered only to joined members. Guarded by hub.mu.
	joined map[GroupID]bool

	// filter is the consumer's early-demux predicate; senders consult
	// it before cloning a delivery for this endpoint.
	filter atomic.Pointer[InboundFilterFunc]

	inbox *Inbox
}

var (
	_ FilteredTransport = (*hubEndpoint)(nil)
	_ GroupTransport    = (*hubEndpoint)(nil)
)

// groupID resolves (or assigns) the hub-wide ID for a group name.
// Caller holds h.mu.
func (h *Hub) groupID(group string) GroupID {
	id, ok := h.groups[group]
	if !ok {
		id = h.nextG
		h.nextG++
		h.groups[group] = id
	}
	return id
}

// Join implements GroupTransport: the endpoint becomes a member of the
// named group and receives its group-addressed multicast from now on.
func (e *hubEndpoint) Join(group string) (GroupID, error) {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.groupID(group)
	if e.joined == nil {
		e.joined = make(map[GroupID]bool)
	}
	e.joined[id] = true
	return id, nil
}

// Register implements GroupTransport: it resolves the group's ID for
// sending without membership.
func (e *hubEndpoint) Register(group string) (GroupID, error) {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.groupID(group), nil
}

// Leave implements GroupTransport.
func (e *hubEndpoint) Leave(gid GroupID) error {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(e.joined, gid)
	return nil
}

// GroupStats implements GroupReporter with the membership count; the
// hub does not meter per-endpoint datapath traffic.
func (e *hubEndpoint) GroupStats() GroupStats {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	return GroupStats{Joined: len(e.joined)}
}

// SetInboundFilter implements FilteredTransport.
func (e *hubEndpoint) SetInboundFilter(f InboundFilterFunc) {
	if f == nil {
		e.filter.Store(nil)
		return
	}
	e.filter.Store(&f)
}

// stageBuf is a pooled SendBatch staging area: the per-target delivery
// lists survive between batches so the hot path reuses their capacity
// instead of reallocating one slice per target per send.
type stageBuf struct {
	dels []delivery
}

var stagePool = sync.Pool{New: func() any { return new(stageBuf) }}

// add opens a delivery slot for t, reusing a truncated slot's item
// capacity when one is available.
func (sb *stageBuf) add(t *hubEndpoint) int {
	if len(sb.dels) < cap(sb.dels) {
		sb.dels = sb.dels[:len(sb.dels)+1]
		sb.dels[len(sb.dels)-1].t = t
	} else {
		sb.dels = append(sb.dels, delivery{t: t})
	}
	return len(sb.dels) - 1
}

// release clears packet references and returns the buffer to the pool.
func (sb *stageBuf) release() {
	for i := range sb.dels {
		clear(sb.dels[i].items)
		sb.dels[i].items = sb.dels[i].items[:0]
		sb.dels[i].t = nil
	}
	sb.dels = sb.dels[:0]
	stagePool.Put(sb)
}

func (e *hubEndpoint) Local() packet.NodeID { return e.id }

// SendBatch implements Transport: one hub-lock acquisition covers
// membership lookup and loss draws for the whole batch, then each
// target's inbox is filled under a single lock acquisition. Unknown
// unicast nodes are silently dropped, like the network.
func (e *hubEndpoint) SendBatch(env []Envelope) error {
	h := e.hub
	sb := stagePool.Get().(*stageBuf)
	h.mu.Lock()
	keep := func(t *hubEndpoint, p *packet.Packet, g GroupID) {
		// Early demux: a target that could never route this packet to
		// a flow discards it before the loss draw and before cloning.
		if fp := t.filter.Load(); fp != nil && !(*fp)(&p.Header) {
			return
		}
		if h.rng != nil && h.rng.Float64() < h.loss {
			return
		}
		if t.stage < 0 {
			t.stage = sb.add(t)
		}
		sb.dels[t.stage].items = append(sb.dels[t.stage].items, Envelope{Pkt: p, From: e.id, Group: g})
	}
	for i := range env {
		switch {
		case env[i].Multicast && env[i].Group != 0:
			// Group-addressed multicast reaches the group's members only
			// — including the sending endpoint, matching real multicast
			// loopback, where a shared socket hosting both ends of a
			// group hears its own sends.
			for _, t := range h.order {
				if t.joined[env[i].Group] {
					keep(t, env[i].Pkt, env[i].Group)
				}
			}
		case env[i].Multicast:
			for _, t := range h.order {
				if t != e {
					keep(t, env[i].Pkt, 0)
				}
			}
		default:
			if t, ok := h.eps[env[i].To]; ok {
				keep(t, env[i].Pkt, 0)
			}
		}
	}
	for i := range sb.dels {
		sb.dels[i].t.stage = -1
	}
	delay := h.delay
	h.mu.Unlock()

	// Clone surviving deliveries into pooled packets before returning,
	// so the caller regains ownership of its batch even under delay.
	for _, d := range sb.dels {
		for i := range d.items {
			p := d.items[i].Pkt
			d.items[i].Pkt = packet.GetBuf(len(p.Payload))
			p.CloneInto(d.items[i].Pkt)
		}
	}
	deliver := func() {
		for _, d := range sb.dels {
			// Overflow and deliveries to a closed endpoint behave like
			// loss; the inbox recycles those clones.
			d.t.inbox.Push(d.items)
		}
		sb.release()
	}
	if delay > 0 {
		time.AfterFunc(delay, deliver)
	} else {
		deliver()
	}
	return nil
}

// RecvBatch implements Transport.
func (e *hubEndpoint) RecvBatch(buf []Envelope) (int, error) { return e.inbox.RecvBatch(buf) }

// Close detaches the endpoint from the hub; closing twice is harmless.
func (e *hubEndpoint) Close() error {
	e.inbox.Close()
	e.hub.mu.Lock()
	delete(e.hub.eps, e.id)
	e.hub.order = slices.DeleteFunc(e.hub.order, func(t *hubEndpoint) bool { return t == e })
	e.hub.mu.Unlock()
	return nil
}
