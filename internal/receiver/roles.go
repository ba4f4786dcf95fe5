package receiver

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// The seams. receiver.go is the flat machine of Figure 9. It looks at a
// role — leaf (leaf.go), head (head.go), recovery (recovery.go) — only by
// calling one of these, and a receiver holding a role differs from the
// flat one nowhere else:
//
//	outbox.go  send/route, learnRemote: who a packet goes to, from which ports
//	leaf.go    fromHead, watchHead: head liveness; headPolicy: NAK retry
//	           policy toward a head
//	head.go    reportedNext, report: own frontier or the subtree's;
//	           relayRefusal: a NAK_ERR is the subtree's business
//	below      roleInput, dataHeard, dataAccepted, advanceRoles,
//	           endOfStream, releaseRoles
//
// The other way, failover and readoptHead (leaf.go) and onFec
// (recovery.go) call rejoin, sendState, nakScan and onData.

// roleInput dispatches the packet types the flat machine has no use for.
func (r *Receiver) roleInput(now sim.Time, from packet.NodeID, p *packet.Packet) error {
	switch p.Type {
	case packet.TypeFec:
		r.onFec(now, p)
	case packet.TypeNak:
		if !r.rec.peers {
			return ErrNotData
		}
		r.onPeerNak(now, p)
	case packet.TypeHeadDecline:
		r.onHeadDecline(now, from, p)
	case packet.TypeJoin, packet.TypeUpdate, packet.TypeLeave, packet.TypeHeadNak:
		// Member feedback needs a head to serve it and a source address
		// to attribute it to.
		if r.head == nil || from == 0 {
			return ErrNotData
		}
		r.onMember(now, from, p)
	default:
		return ErrNotData
	}
	return nil
}

// dataHeard runs for every DATA packet, accepted or not: seeing the data
// (from anyone) cancels a repair scheduled for it.
func (r *Receiver) dataHeard(seq seqspace.Seq) { delete(r.rec.repairs, seq) }

// dataAccepted runs for every packet the receive window took: a head
// keeps it available for downstream repairs past application
// consumption, the recovery cache for parity and peers.
func (r *Receiver) dataAccepted(p *packet.Packet) {
	if r.head != nil {
		r.head.Retain(p)
	}
	r.rec.keep(p, r.wnd.Next())
}

func (r *Receiver) advanceRoles(now sim.Time) {
	if r.rec.timer.Fire(now) {
		r.fireRepairs(now)
	}
	if r.head != nil && r.head.Tick(now) {
		// The aggregate period elapsed: one AGG_UPDATE speaks for the
		// whole subtree (the eviction sweep ran inside Tick).
		if !r.leaveSent {
			r.sendAggUpdate(now)
		}
		r.maybeLeave(now)
	}
}

// endOfStream runs once the application has consumed the FIN. No gap can
// need parity repair any more, so the recovery cache's pool references
// go back. It reports whether a role has taken charge of leaving: a head
// reports the subtree state and defers its LEAVE until every member is
// past the stream end — it must keep answering HEAD_NAKs until then.
func (r *Receiver) endOfStream(now sim.Time) bool {
	r.rec.cache.release()
	if r.head == nil {
		return false
	}
	r.sendAggUpdate(now)
	r.maybeLeave(now)
	return true
}

// releaseRoles drops every packet a role holds. Straggler data after FIN
// may have repopulated the cache, so teardown drains it again.
func (r *Receiver) releaseRoles() {
	r.rec.cache.release()
	if r.head != nil {
		r.head.ReleaseAll()
	}
}
