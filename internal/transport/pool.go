package transport

import (
	"repro/internal/packet"
)

// The transport layer draws its packets from the process-wide
// reference-counted pool in internal/packet (see packet/pool.go for
// the full ownership rules). Transport code takes packets from it
// directly; PutPacket and ReleaseEnvelopes name its release side for
// the callers of a Transport:
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

// PutPacket drops one reference to p, recycling it into the shared
// pool when no references remain. Releasing nil is a no-op.
func PutPacket(p *packet.Packet) { packet.Put(p) }

// ReleaseEnvelopes returns every envelope's packet to the pool and
// clears the slots, for callers that consumed a whole RecvBatch
// without retaining anything.
func ReleaseEnvelopes(env []Envelope) {
	for i := range env {
		PutPacket(env[i].Pkt)
		env[i] = Envelope{}
	}
}
