package sender

import (
	"repro/internal/membership"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The seams. sender.go is the machine of Figure 8. It looks at an
// extension role only by calling one of these, and a sender holding no
// role differs from the paper's nowhere else:
//
//	heads.go       onAggUpdate (HandlePacket); rehomed (onJoin): the orphan
//	               gauge; fenced, liftFence (rule, release): the failover
//	               fence; sweepSilentHeads (Tick), headSweepDue (NextWake)
//	tombstones.go  bury (onLeave; the head sweep); buried (implicitJoin);
//	               staleNak (onNak): the released-range guard;
//	               sweepTombstones (Tick), tombSweepDue (NextWake)
//	parity.go      protect (transmit); flushParity (Tick), flushDue
//	               (NextWake)
//	recovery.go    notBefore (onNak): a retransmission's deferral;
//	               onRepairHeard (HandlePacket): a peer's repair cancels it
//	probes.go      probeLead (rule): early probes; probeGroup
//	               (probeLacking): one multicast PROBE for many unicasts
//	below          admit (onJoin, implicitJoin, onAggUpdate): every way
//	               into the membership table; bookBlocked (tryRelease): the
//	               window's time blocked on receivers

// admit returns from's membership entry, creating it — and counting it
// toward the population ExpectedReceivers waits for — if the address is
// not a member yet. JOIN, an implicit join and a head's AGG_UPDATE all
// come in here.
func (s *Sender) admit(now sim.Time, from packet.NodeID, p *packet.Packet) (m *membership.Member, added bool) {
	m, added = s.members.Add(from, now)
	if added {
		trace.Emit(s.cfg.Trace, now, trace.MemberJoined, p.Seq, int64(s.members.Len()))
		s.maxJoined = max(s.maxJoined, s.members.Len())
	}
	return m, added
}

// bookBlocked books ReleaseBlockedMicros at a release attempt: the time
// since the last attempt that found the window blocked on receivers,
// then whether this one did. The window can only leave that state
// through a release, so booking here needs no deadline of its own.
func (s *Sender) bookBlocked(now sim.Time, blocked bool) {
	if s.blocked {
		us := (now - s.blockedAt) / sim.Microsecond
		s.st.ReleaseBlockedMicros += int64(us)
		s.blockedAt += us * sim.Microsecond
	} else if blocked {
		s.blockedAt = now
	}
	s.blocked = blocked
}
