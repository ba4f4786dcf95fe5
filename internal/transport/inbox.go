package transport

import "sync"

// inboxDepth bounds an endpoint's pending-delivery queue, playing the
// role of a kernel socket buffer: deliveries beyond it behave like
// network loss.
const inboxDepth = 4096

// Inbox is the bounded queue between an endpoint's producers (hub
// senders, UDP read loops) and its RecvBatch callers — the one
// implementation every endpoint in this repository delivers through.
// Producers hand over whole batches under one lock acquisition; the
// queue owns the packets until a reader pops them, and recycles into
// the packet pool whatever it cannot hold.
type Inbox struct {
	mu     sync.Mutex
	queue  []Envelope // pending deliveries, queue[head:] live
	head   int
	closed bool

	notify chan struct{} // capacity 1: "queue may be non-empty"
	done   chan struct{} // closed by Close
}

// NewInbox returns an empty open inbox.
func NewInbox() *Inbox {
	return &Inbox{notify: make(chan struct{}, 1), done: make(chan struct{})}
}

// Push appends a delivery batch, taking ownership of its packets, and
// reports how many it dropped: the overflow past inboxDepth, or the
// whole batch once the inbox is closed. The closed check shares the
// queue lock with Close, so a push racing Close either lands before
// it (and is drained by RecvBatch) or is recycled — never stranded.
func (q *Inbox) Push(env []Envelope) (dropped int) {
	q.mu.Lock()
	if q.head > 0 {
		n := copy(q.queue, q.queue[q.head:])
		clear(q.queue[n:])
		q.queue = q.queue[:n]
		q.head = 0
	}
	space := 0
	if !q.closed {
		space = min(inboxDepth-len(q.queue), len(env))
	}
	q.queue = append(q.queue, env[:space]...)
	q.mu.Unlock()
	for i := space; i < len(env); i++ {
		PutPacket(env[i].Pkt)
	}
	if space > 0 {
		q.wake()
	}
	return len(env) - space
}

// wake deposits the notify token unless one is already waiting.
func (q *Inbox) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// pop moves up to len(buf) pending deliveries into buf. It re-arms the
// notify token when items remain, so a second blocked reader wakes.
func (q *Inbox) pop(buf []Envelope) int {
	q.mu.Lock()
	n := copy(buf, q.queue[q.head:])
	clear(q.queue[q.head : q.head+n])
	q.head += n
	remaining := len(q.queue) - q.head
	if remaining == 0 {
		q.queue = q.queue[:0]
		q.head = 0
	}
	q.mu.Unlock()
	if remaining > 0 {
		q.wake()
	}
	return n
}

// RecvBatch blocks until at least one delivery is pending, moves up to
// len(buf) of them into buf and returns the count; ownership of the
// packets passes to the caller. After Close it drains what was already
// queued, then returns ErrClosed.
func (q *Inbox) RecvBatch(buf []Envelope) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	for {
		if n := q.pop(buf); n > 0 {
			return n, nil
		}
		select {
		case <-q.notify:
		case <-q.done:
			// Drain anything that raced with close.
			if n := q.pop(buf); n > 0 {
				return n, nil
			}
			return 0, ErrClosed
		}
	}
}

// Close stops the inbox accepting deliveries and unblocks readers.
// Closing twice is harmless.
func (q *Inbox) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.done)
	}
	q.mu.Unlock()
}
