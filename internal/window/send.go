// Package window implements the window-based half of RMC/H-RMC flow
// control: the sender's send window (the kernel write_queue of Figure 8)
// and the receiver's receive window with the safe/warning/critical
// regions of Figure 2.
package window

import (
	"errors"

	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// ErrWindowFull is returned when a packet does not fit in the window's
// byte budget.
var ErrWindowFull = errors.New("window: full")

// SendEntry is one buffered outgoing packet with the state the sender
// needs to decide on release and retransmission.
type SendEntry struct {
	Pkt *packet.Packet
	// FirstSent and LastSent are the times of the first and the most
	// recent transmission; zero Tries means not yet transmitted.
	FirstSent sim.Time
	LastSent  sim.Time
	// Tries counts transmissions (Karn: an entry with Tries > 1 gives
	// ambiguous RTT samples).
	Tries int
}

// Sent reports whether the packet has been transmitted at least once.
func (e *SendEntry) Sent() bool { return e.Tries > 0 }

// SendWindow is the sender's buffer of un-released packets, a queue over
// the contiguous sequence range [Base, Next). Capacity is accounted in
// wire bytes against the per-socket kernel buffer size (sndbuf).
type SendWindow struct {
	base    seqspace.Seq // snd_wnd: first un-released sequence number
	next    seqspace.Seq // snd_nxt: sequence number for the next new packet
	entries []*SendEntry // ring-free: index 0 is base
	head    int
	// unsent is FirstUnsent's cursor: every entry in [head, unsent) has
	// been transmitted. Tries only grows while an entry is buffered, so
	// the cursor only moves forward, with head when Release passes it.
	unsent int
	bytes  int
	limit  int

	// Entry structs are carved from slabs and recycled through a free
	// list, so steady-state Insert/Release traffic allocates nothing.
	// The entry returned by Release stays valid until the next call
	// into the window (spare holds it until then).
	slab  []SendEntry
	free  []*SendEntry
	spare *SendEntry
}

const entrySlabSize = 64

// getEntry returns a zeroed SendEntry from the free list or a slab.
func (w *SendWindow) getEntry() *SendEntry {
	w.recycleSpare()
	if n := len(w.free) - 1; n >= 0 {
		e := w.free[n]
		w.free[n] = nil
		w.free = w.free[:n]
		return e
	}
	if len(w.slab) == 0 {
		w.slab = make([]SendEntry, entrySlabSize)
	}
	e := &w.slab[0]
	w.slab = w.slab[1:]
	return e
}

// recycleSpare moves the previously released entry onto the free list.
func (w *SendWindow) recycleSpare() {
	if w.spare != nil {
		*w.spare = SendEntry{}
		w.free = append(w.free, w.spare)
		w.spare = nil
	}
}

// NewSendWindow creates a send window with the given byte budget and
// initial sequence number.
func NewSendWindow(limitBytes int, initialSeq seqspace.Seq) *SendWindow {
	return &SendWindow{base: initialSeq, next: initialSeq, limit: limitBytes}
}

// Base returns snd_wnd, the first sequence number still buffered.
func (w *SendWindow) Base() seqspace.Seq { return w.base }

// Next returns snd_nxt, the sequence number the next new packet gets.
func (w *SendWindow) Next() seqspace.Seq { return w.next }

// Len returns the number of buffered packets.
func (w *SendWindow) Len() int { return len(w.entries) - w.head }

// Bytes returns the buffered wire bytes.
func (w *SendWindow) Bytes() int { return w.bytes }

// Limit returns the byte budget.
func (w *SendWindow) Limit() int { return w.limit }

// Free returns the remaining byte budget.
func (w *SendWindow) Free() int { return w.limit - w.bytes }

// Fits reports whether a packet of the given wire size can be inserted.
func (w *SendWindow) Fits(wireSize int) bool {
	return w.bytes+wireSize <= w.limit || w.Len() == 0
}

// Insert assigns the next sequence number to p, buffers it, and returns
// the assigned sequence number. A packet that would exceed the byte
// budget is rejected with ErrWindowFull unless the window is empty (a
// single oversized packet must always be sendable, like the kernel's
// one-skb grace).
func (w *SendWindow) Insert(p *packet.Packet) (seqspace.Seq, error) {
	if !w.Fits(p.WireSize()) {
		return 0, ErrWindowFull
	}
	p.Seq = uint32(w.next)
	e := w.getEntry()
	e.Pkt = p
	w.entries = append(w.entries, e)
	w.next++
	w.bytes += p.WireSize()
	return seqspace.Seq(p.Seq), nil
}

// Entry returns the buffered entry for seq, or nil when seq is not in
// [Base, Next).
func (w *SendWindow) Entry(seq seqspace.Seq) *SendEntry {
	d := seqspace.Diff(seq, w.base)
	if d < 0 || int(d) >= w.Len() {
		return nil
	}
	return w.entries[w.head+int(d)]
}

// Front returns the oldest buffered entry, or nil.
func (w *SendWindow) Front() *SendEntry {
	if w.Len() == 0 {
		return nil
	}
	return w.entries[w.head]
}

// Release drops the front packet (advances snd_wnd) and returns its
// entry, or nil when the window is empty. The returned entry is only
// valid until the next call into the window: it is recycled for a
// later Insert.
func (w *SendWindow) Release() *SendEntry {
	w.recycleSpare()
	if w.Len() == 0 {
		return nil
	}
	e := w.entries[w.head]
	w.spare = e
	w.entries[w.head] = nil
	w.head++
	w.unsent = max(w.unsent, w.head)
	w.bytes -= e.Pkt.WireSize()
	w.base++
	if w.head > 64 && w.head*2 >= len(w.entries) {
		n := copy(w.entries, w.entries[w.head:])
		for i := n; i < len(w.entries); i++ {
			w.entries[i] = nil
		}
		w.entries = w.entries[:n]
		w.unsent -= w.head
		w.head = 0
	}
	return e
}

// Each walks the buffered entries in sequence order; fn returning false
// stops the walk.
func (w *SendWindow) Each(fn func(seqspace.Seq, *SendEntry) bool) {
	for i := w.head; i < len(w.entries); i++ {
		seq := w.base + seqspace.Seq(i-w.head)
		if !fn(seq, w.entries[i]) {
			return
		}
	}
}

// FirstUnsent returns the first entry that has never been transmitted,
// with its sequence number, or nil. The scan resumes where the last one
// stopped, so a transmit loop calling it once a packet walks the window
// once, not once a packet.
func (w *SendWindow) FirstUnsent() (seqspace.Seq, *SendEntry) {
	for ; w.unsent < len(w.entries); w.unsent++ {
		if e := w.entries[w.unsent]; !e.Sent() {
			return w.base + seqspace.Seq(w.unsent-w.head), e
		}
	}
	return 0, nil
}
