package transport

import (
	"repro/internal/packet"
)

// The transport layer draws its packets from the process-wide
// reference-counted pool in internal/packet (see packet/pool.go for
// the full ownership rules). These wrappers exist so transport code
// and its callers keep one vocabulary for the ownership contract:
//
//   - A Transport's RecvBatch hands packet ownership to the
//     caller. The caller either releases the packet with PutPacket
//     once it is done — the demultiplexer does this for packets no
//     flow is bound to — or hands ownership on. A protocol machine
//     that retains the payload (the receive window's hold-until-
//     release buffering) releases it on in-order delivery to the app.
//   - A packet passed to SendBatch remains owned by the sender;
//     implementations copy or encode it before returning and never
//     release it themselves. Senders that need the packet to outlive a
//     concurrent release (the session's shared send poller) cover the
//     overlap with packet.Retain.
//   - After the final PutPacket the packet and its payload must not be
//     touched: the pool will hand both to an unrelated receive path.

// GetPacket takes a packet from the shared pool with one reference.
// The header is zeroed; the payload slice is empty but may have
// recycled capacity.
func GetPacket() *packet.Packet { return packet.Get() }

// PutPacket drops one reference to p, recycling it into the shared
// pool when no references remain. Releasing nil is a no-op.
func PutPacket(p *packet.Packet) { packet.Put(p) }

// ClonePacket deep-copies p into a pooled packet: the batched
// delivery paths' replacement for packet.Clone, recycling both the
// packet struct and the payload backing array.
func ClonePacket(p *packet.Packet) *packet.Packet {
	q := packet.GetBuf(len(p.Payload))
	p.CloneInto(q)
	return q
}

// ReleaseEnvelopes returns every envelope's packet to the pool and
// clears the slots, for callers that consumed a whole RecvBatch
// without retaining anything.
func ReleaseEnvelopes(env []Envelope) {
	for i := range env {
		PutPacket(env[i].Pkt)
		env[i] = Envelope{}
	}
}
