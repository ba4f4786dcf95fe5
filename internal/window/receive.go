package window

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
)

// Region is the receive-window fill region of Figure 2.
type Region int

const (
	// Safe: no flow-control action is taken.
	Safe Region = iota
	// Warning: a rate request is sent when the WARNBUF rule predicts
	// overflow.
	Warning
	// Critical: an urgent rate request stops the sender for two RTTs.
	Critical
)

func (r Region) String() string {
	switch r {
	case Safe:
		return "safe"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return "unknown"
}

// Region thresholds as fractions of the receive-window size. The paper
// does not publish its constants; Figure 2 draws the safe region as the
// smaller left portion, and a quarter/three-quarters split reproduces
// the reported feedback behaviour: rate requests whenever loss or a slow
// application lets arrivals run ahead, urgent stops only near overflow.
const (
	WarningFraction  = 0.25
	CriticalFraction = 0.75
)

// InsertResult describes what Insert did with a data packet.
type InsertResult int

const (
	// Accepted: the packet was new and stored.
	Accepted InsertResult = iota
	// AcceptedInOrder: the packet was exactly rcv_nxt and advanced the
	// in-order frontier (possibly draining out-of-order packets too).
	AcceptedInOrder
	// Duplicate: the packet was already received or already consumed.
	Duplicate
	// OutOfWindow: the packet lies beyond the receive window (region R4
	// of Figure 2) and was dropped.
	OutOfWindow
)

func (r InsertResult) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case AcceptedInOrder:
		return "accepted-in-order"
	case Duplicate:
		return "duplicate"
	case OutOfWindow:
		return "out-of-window"
	}
	return "unknown"
}

// ReceiveWindow reassembles the data stream. It owns both the out-of-
// order queue and the in-order receive queue of Figure 9, and exposes
// the region logic the Main Packet Processor uses for rate requests.
//
// The window covers [Base, Base+Size) in packets. Base (rcv_wnd) advances
// as the application consumes data; Next (rcv_nxt) is the reassembly
// frontier; HighestEnd is one past the highest sequence number received,
// which may run ahead of Next when there are gaps.
type ReceiveWindow struct {
	base    seqspace.Seq
	next    seqspace.Seq
	size    uint32
	highest seqspace.Seq // one past the highest seq stored; == next when no OOO
	// announced is one past the highest sequence number the sender is
	// known to have transmitted (from KEEPALIVE/PROBE); it can run ahead
	// of highest and drives gap detection, but not flow-control fill —
	// unreceived data occupies no buffer space.
	announced seqspace.Seq

	// ooo holds packets at or after next that cannot be delivered yet.
	ooo map[seqspace.Seq]*packet.Packet
	// ready holds in-order packets awaiting application reads.
	ready     []*packet.Packet
	readyHead int
	// readOff is the byte offset consumed from ready[readyHead].
	readOff int

	// recycle makes the window the owner of inserted packets: each one
	// is returned to the packet pool (packet.Put) when the application
	// fully consumes it — the hold-until-release edge of the zero-copy
	// datapath. Anything holding payloads past consumption must keep
	// its own pool reference (the receiver's FEC cache retains each
	// cached packet for exactly this reason).
	recycle bool
}

// SetRecycle switches packet recycling on or off (see the recycle
// field). Callers enable it only when every inserted packet is pool-
// owned and nothing aliases stored payloads after consumption.
func (w *ReceiveWindow) SetRecycle(on bool) { w.recycle = on }

// NewReceiveWindow creates a window of the given size in packets,
// starting at initialSeq.
func NewReceiveWindow(sizePackets uint32, initialSeq seqspace.Seq) *ReceiveWindow {
	if sizePackets == 0 {
		sizePackets = 1
	}
	return &ReceiveWindow{
		base:      initialSeq,
		next:      initialSeq,
		size:      sizePackets,
		highest:   initialSeq,
		announced: initialSeq,
		ooo:       make(map[seqspace.Seq]*packet.Packet),
	}
}

// Base returns rcv_wnd.
func (w *ReceiveWindow) Base() seqspace.Seq { return w.base }

// Next returns rcv_nxt, the next sequence number expected in order.
func (w *ReceiveWindow) Next() seqspace.Seq { return w.next }

// Size returns the window size in packets.
func (w *ReceiveWindow) Size() uint32 { return w.size }

// HighestEnd returns one past the highest sequence number received.
func (w *ReceiveWindow) HighestEnd() seqspace.Seq { return w.highest }

// Fill returns the number of window slots occupied, counting everything
// from Base up to the highest received packet — buffered in-order data
// the application has not read (region R2) plus the span containing any
// out-of-order data. This is the quantity the region rules act on.
func (w *ReceiveWindow) Fill() uint32 { return seqspace.Count(w.base, w.highest) }

// Empty returns the unoccupied window slots.
func (w *ReceiveWindow) Empty() uint32 {
	f := w.Fill()
	if f >= w.size {
		return 0
	}
	return w.size - f
}

// Region returns the fill region per Figure 2.
func (w *ReceiveWindow) Region() Region {
	fill := float64(w.Fill()) / float64(w.size)
	switch {
	case fill >= CriticalFraction:
		return Critical
	case fill >= WarningFraction:
		return Warning
	default:
		return Safe
	}
}

// Insert processes an arriving data packet. On AcceptedInOrder the
// reassembly frontier advanced (check Next). The caller detects gaps by
// comparing the packet's sequence number with Next before inserting.
func (w *ReceiveWindow) Insert(p *packet.Packet) InsertResult {
	seq := seqspace.Seq(p.Seq)
	if seqspace.Before(seq, w.next) {
		return Duplicate
	}
	if !seqspace.InWindow(seq, w.base, w.size) {
		return OutOfWindow
	}
	if _, dup := w.ooo[seq]; dup {
		return Duplicate
	}
	end := seq + 1
	if seqspace.After(end, w.highest) {
		w.highest = end
	}
	if seqspace.After(end, w.announced) {
		w.announced = end
	}
	if seq != w.next {
		w.ooo[seq] = p
		return Accepted
	}
	// In order: deliver it and drain any contiguous out-of-order run.
	w.pushReady(p)
	w.next++
	for {
		q, ok := w.ooo[w.next]
		if !ok {
			break
		}
		delete(w.ooo, w.next)
		w.pushReady(q)
		w.next++
	}
	return AcceptedInOrder
}

func (w *ReceiveWindow) pushReady(p *packet.Packet) {
	w.ready = append(w.ready, p)
}

// Missing appends to dst the sequence ranges [from, to) that are absent
// between Next and the highest sequence number the sender is known to
// have transmitted — the gaps a NAK must cover.
func (w *ReceiveWindow) Missing(dst []Gap) []Gap {
	s := w.next
	for seqspace.Before(s, w.announced) {
		if _, ok := w.ooo[s]; ok {
			s++
			continue
		}
		g := Gap{From: s}
		for seqspace.Before(s, w.announced) {
			if _, ok := w.ooo[s]; ok {
				break
			}
			s++
		}
		g.To = s
		dst = append(dst, g)
	}
	return dst
}

// Gap is a half-open range of missing sequence numbers.
type Gap struct {
	From, To seqspace.Seq
}

// Count returns the number of missing packets in the gap.
func (g Gap) Count() uint32 { return seqspace.Count(g.From, g.To) }

// GapOf decodes the range a NAK-family packet (NAK, HEAD_NAK, NAK_ERR,
// HEAD_DECLINE) names: Length packets starting at Seq, where a zero
// Length still names one packet.
func GapOf(p *packet.Packet) Gap {
	n := p.Length
	if n == 0 {
		n = 1
	}
	return Gap{From: seqspace.Seq(p.Seq), To: seqspace.Seq(p.Seq) + seqspace.Seq(n)}
}

// Buffered returns the number of in-order packets awaiting reads.
func (w *ReceiveWindow) Buffered() int { return len(w.ready) - w.readyHead }

// Read copies up to len(buf) in-order payload bytes to buf, advancing
// Base as packets are fully consumed (the application-read edge of the
// window). It returns the number of bytes copied and whether a packet
// with the FIN flag was fully consumed (end of stream).
func (w *ReceiveWindow) Read(buf []byte) (n int, fin bool) {
	for n < len(buf) && w.readyHead < len(w.ready) {
		p := w.ready[w.readyHead]
		c := copy(buf[n:], p.Payload[w.readOff:])
		n += c
		w.readOff += c
		if w.readOff >= len(p.Payload) {
			if p.FIN() {
				fin = true
			}
			if w.recycle {
				packet.Put(p)
			}
			w.ready[w.readyHead] = nil
			w.readyHead++
			w.readOff = 0
			w.base++
			if w.readyHead > 64 && w.readyHead*2 >= len(w.ready) {
				m := copy(w.ready, w.ready[w.readyHead:])
				for i := m; i < len(w.ready); i++ {
					w.ready[i] = nil
				}
				w.ready = w.ready[:m]
				w.readyHead = 0
			}
			if fin {
				return n, true
			}
		}
	}
	return n, false
}

// PeekFIN reports whether the stream end (a FIN packet) is already fully
// reassembled and waiting in the ready queue.
func (w *ReceiveWindow) PeekFIN() bool {
	for i := w.readyHead; i < len(w.ready); i++ {
		if w.ready[i].FIN() {
			return true
		}
	}
	return false
}

// OOOCount returns the number of packets parked in the out-of-order
// queue.
func (w *ReceiveWindow) OOOCount() int { return len(w.ooo) }

// PacketAt returns the stored packet for seq, covering both the in-order
// queue awaiting application reads and the out-of-order queue. Consumed
// (below Base) and absent sequence numbers report false. Used by the
// repair-head, FEC and local-recovery extensions.
func (w *ReceiveWindow) PacketAt(seq seqspace.Seq) (*packet.Packet, bool) {
	if seqspace.Before(seq, w.base) {
		return nil, false
	}
	if seqspace.Before(seq, w.next) {
		idx := w.readyHead + int(seqspace.Diff(seq, w.base))
		if idx >= w.readyHead && idx < len(w.ready) {
			return w.ready[idx], true
		}
		return nil, false
	}
	if p, ok := w.ooo[seq]; ok {
		return p, true
	}
	return nil, false
}

// ReleaseAll drops every buffered packet — the unread ready queue and
// the out-of-order queue — returning them to the pool when recycling
// is on. It is for teardown of an aborted flow; the window must not be
// used afterwards.
func (w *ReceiveWindow) ReleaseAll() {
	for i := w.readyHead; i < len(w.ready); i++ {
		if w.recycle {
			packet.Put(w.ready[i])
		}
		w.ready[i] = nil
	}
	w.ready = w.ready[:0]
	w.readyHead = 0
	w.readOff = 0
	for seq, p := range w.ooo {
		if w.recycle {
			packet.Put(p)
		}
		delete(w.ooo, seq)
	}
}

// Rebase moves an empty window to start at seq — the late-join path: a
// receiver attaching to an in-progress stream accepts it from the first
// position it can anchor to instead of NAKing the whole history. Valid
// only before any packet has been inserted or announced; a non-empty
// window is left untouched and Rebase reports false.
func (w *ReceiveWindow) Rebase(seq seqspace.Seq) bool {
	if w.highest != w.base || w.announced != w.base || len(w.ready) != 0 || len(w.ooo) != 0 {
		return false
	}
	w.base, w.next, w.highest, w.announced = seq, seq, seq, seq
	return true
}

// ExtendHighest records that the sender has transmitted data up to and
// including seq (learned from a KEEPALIVE or PROBE), so that trailing
// losses become visible as gaps. The extension is clamped to the window
// end (data beyond the window could not be buffered yet and will be
// recovered after the window slides) and does not count toward
// flow-control fill, since nothing was actually received.
func (w *ReceiveWindow) ExtendHighest(seq seqspace.Seq) {
	end := seq + 1
	windowEnd := w.base + seqspace.Seq(w.size)
	if seqspace.After(end, windowEnd) {
		end = windowEnd
	}
	if seqspace.After(end, w.announced) {
		w.announced = end
	}
}
