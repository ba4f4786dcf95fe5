package main

import (
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/transport"
)

// wrapped is the part every benchmark-owned transport wrapper shares:
// it holds the wrapped endpoint in both of its interfaces and forwards
// what the wrapper does not change. The session resolves a transport's
// batch interface itself (transport.Batched), so a wrapper has to be a
// Transport and a BatchTransport at once, as every endpoint in this
// repository is.
type wrapped struct {
	tr transport.Transport
	bt transport.BatchTransport
}

func wrap(tr transport.Transport) wrapped {
	return wrapped{tr: tr, bt: transport.Batched(tr)}
}

func (w wrapped) Local() packet.NodeID { return w.tr.Local() }
func (w wrapped) Close() error         { return w.tr.Close() }

// SetInboundFilter forwards the session's early-demux filter. Without
// it a wrapped hub endpoint would be handed every flow's multicast and
// the 64-flow workload would measure the clone fan-out, not the stack.
func (w wrapped) SetInboundFilter(f transport.InboundFilterFunc) {
	if ft, ok := w.bt.(transport.FilteredTransport); ok {
		ft.SetInboundFilter(f)
	}
}

// sendOne and recvOne are the per-packet Transport methods as batches
// of one over a wrapper's own batch methods, so the wrapper's behaviour
// is the same on either interface.
func sendOne(bt transport.BatchTransport, p *packet.Packet, multicast bool, node packet.NodeID) error {
	env := [1]transport.Envelope{{Pkt: p, Multicast: multicast, To: node}}
	return bt.SendBatch(env[:])
}

func recvOne(bt transport.BatchTransport) (*packet.Packet, packet.NodeID, error) {
	var buf [1]transport.Envelope
	for {
		n, err := bt.RecvBatch(buf[:])
		if err != nil {
			return nil, 0, err
		}
		if n == 1 {
			return buf[0].Pkt, buf[0].From, nil
		}
	}
}

// lossPPM is the injected loss of the lossy workloads: 1 % of DATA and
// FEC packets, per receiver.
const lossPPM = 10000

// lossyTransport drops inbound DATA and FEC packets of one receiver
// deterministically. The verdict is a function of the packet's
// identity — (seed, group, receiver, Seq, Tries, Type) — and not of
// arrival order, so one seed loses the same packets on every run, and a
// retransmission (Tries+1) draws again. Control packets are never
// dropped: a PROBE repeats a fixed Seq and would otherwise die for
// ever.
type lossyTransport struct {
	wrapped
	key uint64 // mix of seed, group and receiver
	ppm uint64

	seen    atomic.Int64 // DATA+FEC packets offered
	dropped atomic.Int64
}

var (
	_ transport.Transport         = (*lossyTransport)(nil)
	_ transport.BatchTransport    = (*lossyTransport)(nil)
	_ transport.FilteredTransport = (*lossyTransport)(nil)
)

func newLossy(tr transport.Transport, seed uint64, group, receiver int, ppm uint64) *lossyTransport {
	key := mix64(seed ^ mix64(uint64(group)<<32|uint64(uint32(receiver))))
	return &lossyTransport{wrapped: wrap(tr), key: key, ppm: ppm}
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// drops is the loss verdict for one packet header arriving on group g
// (the envelope's group tag on a shared group transport, else 0).
func (l *lossyTransport) drops(h *packet.Header, g transport.GroupID) bool {
	if h.Type != packet.TypeData && h.Type != packet.TypeFec {
		return false
	}
	id := mix64(uint64(g)<<32|uint64(h.Seq)) ^ uint64(h.Tries)<<8 ^ uint64(h.Type)
	return mix64(l.key^id)%1e6 < l.ppm
}

func (l *lossyTransport) SendBatch(env []transport.Envelope) error { return l.bt.SendBatch(env) }

// RecvBatch returns the inner batch minus the dropped packets, which go
// back to the shared pool; a batch that is dropped whole is replaced by
// the next one, so the caller never sees an empty batch.
func (l *lossyTransport) RecvBatch(buf []transport.Envelope) (int, error) {
	for {
		n, err := l.bt.RecvBatch(buf)
		if err != nil {
			return n, err
		}
		kept := 0
		for i := 0; i < n; i++ {
			h := &buf[i].Pkt.Header
			if h.Type == packet.TypeData || h.Type == packet.TypeFec {
				l.seen.Add(1)
			}
			if l.drops(h, buf[i].Group) {
				l.dropped.Add(1)
				transport.PutPacket(buf[i].Pkt)
				continue
			}
			buf[kept] = buf[i]
			kept++
		}
		for i := kept; i < n; i++ {
			buf[i] = transport.Envelope{}
		}
		if kept > 0 || n == 0 {
			return kept, nil
		}
	}
}

func (l *lossyTransport) Send(p *packet.Packet, multicast bool, node packet.NodeID) error {
	return sendOne(l, p, multicast, node)
}

func (l *lossyTransport) Recv() (*packet.Packet, packet.NodeID, error) { return recvOne(l) }
