package receiver

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// dest is where an outgoing packet is headed. The three concrete kinds
// are also the three views a driver drains.
type dest uint8

const (
	toSender dest = iota // unicast to the sender (Outgoing)
	toGroup              // multicast to the group, or a head's subtree (OutgoingMulticast)
	toNode               // repair-plane unicast to one node (OutgoingAddressed)
	// upstream is whoever tracks this receiver's state and repairs its
	// losses. It resolves to one of the kinds above by the roles held;
	// see route.
	upstream
)

type outItem struct {
	pkt *packet.Packet
	d   dest
	to  packet.NodeID
}

// outbox holds every packet the machine has emitted and not yet handed
// to its driver, in emission order.
type outbox struct {
	// local and remote fill the port fields. remote may start zero and is
	// then learned from the sender (learnRemote), like sender, the node
	// toSender packets go to, known once senderOK.
	local, remote uint16
	sender        packet.NodeID
	senderOK      bool
	// subtree marks the group as a repair head's subtree, whose members
	// listen on the receiver port rather than the sender's.
	subtree bool
	q       []outItem
}

// send queues p. It is the only place a packet gets its destination and
// its ports:
//
//	upstream, by packet type   flat    leaf    failed-over leaf  head    local recovery
//	JOIN, UPDATE, LEAVE        sender  head    sender            sender  sender
//	NAK                        sender  head*   sender            sender  group
//	CONTROL, AGG_UPDATE        sender  sender  sender            sender  sender
//	(* as HEAD_NAK; a range the head declined asks the sender, toSender)
//
//	destination       SrcPort  DstPort
//	sender            local    remote
//	group             local    remote (a head's subtree: local)
//	node, leaf's head local    local
//
// A head's repairs and declines go toGroup, its answers to members
// toNode; peer repairs under local recovery go toGroup.
func (r *Receiver) send(now sim.Time, p *packet.Packet, d dest, to packet.NodeID) {
	if d == upstream {
		d, to = r.route(now, p)
	}
	o := &r.out
	p.SrcPort, p.DstPort = o.local, o.remote
	if d == toNode || d == toGroup && o.subtree {
		// Both ends of the repair plane listen on the group's receiver
		// port, not the sender's.
		p.DstPort = o.local
	}
	o.q = append(o.q, outItem{p, d, to})
}

// route resolves upstream for p: a leaf's head takes its membership
// feedback and retransmission requests, local recovery multicasts NAKs
// so peers can repair and suppress, everything else — rate control
// above all — stays end-to-end.
func (r *Receiver) route(now sim.Time, p *packet.Packet) (dest, packet.NodeID) {
	if r.leaf.takes(now, p) {
		return toNode, r.leaf.head
	}
	if p.Type == packet.TypeNak && r.rec.peers {
		return toGroup, 0
	}
	return toSender, 0
}

// learnRemote adopts the sender's source port when none was configured,
// the way a connected socket learns its peer — only from
// sender-originated types, so a peer's multicast NAK (local recovery)
// can never hijack the feedback address. A leaf's JOIN/LEAVE responses
// come from its repair head, not the sender, so they are excluded while
// it is attached. The sender's node is adopted the same way, from the
// first such packet whose source port is the sender's (configured, or
// learned from this very packet): a stray from another port is not it.
func (r *Receiver) learnRemote(from packet.NodeID, p *packet.Packet) {
	switch p.Type {
	case packet.TypeJoinResponse, packet.TypeLeaveResponse:
		if r.leaf.attached() {
			return
		}
	case packet.TypeData, packet.TypeKeepalive, packet.TypeProbe, packet.TypeFec, packet.TypeNakErr:
	default:
		return
	}
	o := &r.out
	if o.remote == 0 {
		o.remote = p.SrcPort
	}
	if !o.senderOK && p.SrcPort == o.remote {
		o.sender, o.senderOK = from, true
	}
}

// Sender reports the sender's node, where Outgoing's packets go, once
// learnRemote has adopted it; until then a driver leaves them queued.
func (r *Receiver) Sender() (packet.NodeID, bool) { return r.out.sender, r.out.senderOK }

// take removes the packets queued for d, in order, and passes each to fn.
func (o *outbox) take(d dest, fn func(outItem)) {
	keep := o.q[:0]
	for _, it := range o.q {
		if it.d == d {
			fn(it)
		} else {
			keep = append(keep, it)
		}
	}
	clear(o.q[len(keep):])
	o.q = keep
}

func (o *outbox) packets(d dest) (out []*packet.Packet) {
	o.take(d, func(it outItem) { out = append(out, it.pkt) })
	return out
}

// Outgoing drains the packets destined for the sender's unicast address,
// in order.
func (r *Receiver) Outgoing() []*packet.Packet { return r.out.packets(toSender) }

// OutgoingMulticast drains packets destined for the whole group
// (multicast NAKs and repairs under the local-recovery extension, and a
// head's repairs into its subtree).
func (r *Receiver) OutgoingMulticast() []*packet.Packet { return r.out.packets(toGroup) }

// Addressed is one outgoing packet with an explicit unicast destination
// on the repair plane (leaf↔head traffic, which the flat feedback path —
// everything unicast to the sender — cannot express).
type Addressed struct {
	Pkt *packet.Packet
	To  packet.NodeID
}

// OutgoingAddressed drains repair-plane unicast packets, each with its
// explicit destination (leaf→head feedback, head→leaf responses).
func (r *Receiver) OutgoingAddressed() (out []Addressed) {
	r.out.take(toNode, func(it outItem) { out = append(out, Addressed{it.pkt, it.to}) })
	return out
}
