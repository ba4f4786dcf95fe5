package sender

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// nak builds a receiver NAK for one sequence number, reporting the
// requester's next-expected in RateAdv like the receiver does.
func nak(seq, next uint32) *packet.Packet {
	return &packet.Packet{Header: packet.Header{Type: packet.TypeNak, Seq: seq, RateAdv: next}}
}

// A departed member's tombstone suppresses NAK_ERRs for stale NAKs the
// member had already recovered from — but only for the tombstone TTL,
// after which the sweep reclaims the entry and the memory.
func TestTombstoneGuardsStaleNakThenExpires(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.Mode = HRMC
		c.MinBufRTTs = 1
	})
	now := sim.Time(0)
	s.Write(now, make([]byte, 5000))
	s.HandlePacket(now, 1, fb(packet.TypeJoin, 0))
	now += kernel.Jiffy
	s.Tick(now)
	s.Outgoing()

	// The member holds everything, then leaves; close, wait out the
	// MINBUF hold, and drain so the window releases.
	s.HandlePacket(now, 1, fb(packet.TypeUpdate, 5))
	s.HandlePacket(now, 1, fb(packet.TypeLeave, 5))
	s.Close(now)
	now += 5 * kernel.Jiffy
	s.Tick(now) // sends the FIN
	s.Outgoing()
	now += 3 * kernel.Jiffy
	s.Tick(now) // FIN's own hold expires; window drains
	s.Outgoing()
	if s.wnd.Len() != 0 {
		t.Fatalf("window still holds %d packets after close and release", s.wnd.Len())
	}

	// A reordered stale NAK for released data, covered by the tombstone:
	// dropped silently.
	s.HandlePacket(now, 1, nak(2, 5))
	if s.Stats().NakErrsSent != 0 {
		t.Fatal("stale NAK from a departed member earned a NAK_ERR inside the TTL")
	}

	// Past the TTL the sweep forgets the member; the same NAK is now an
	// uncoverable request and earns the NAK_ERR.
	now += tombstoneTTL + kernel.Jiffy
	s.Tick(now)
	if len(s.tombs.departed) != 0 {
		t.Fatalf("tombstones not swept after TTL: %d left", len(s.tombs.departed))
	}
	s.HandlePacket(now, 1, nak(2, 5))
	if s.Stats().NakErrsSent != 1 {
		t.Fatal("NAK for released data got no NAK_ERR after the tombstone expired")
	}
}

// The tombstone map must not leak under sustained membership churn:
// entries older than the TTL are swept in O(1) amortized time from the
// tick path.
func TestTombstoneChurnDoesNotLeak(t *testing.T) {
	s := newS(t, func(c *Config) { c.Mode = HRMC })
	const step = tombstoneTTL / 10
	now := sim.Time(0)
	peak := 0
	for i := 0; i < 500; i++ {
		addr := packet.NodeID(i + 1)
		s.HandlePacket(now, addr, fb(packet.TypeJoin, 0))
		s.HandlePacket(now, addr, fb(packet.TypeLeave, 0))
		now += step
		s.Tick(now)
		s.Outgoing()
		if len(s.tombs.departed) > peak {
			peak = len(s.tombs.departed)
		}
	}
	// At one join/leave per step, steady state keeps only the entries
	// younger than the TTL plus one sweep period.
	bound := 2*int(tombstoneTTL/step) + 2
	if peak > bound {
		t.Fatalf("tombstone map peaked at %d entries, want <= %d (TTL-bounded)", peak, bound)
	}
	now += tombstoneTTL + kernel.Jiffy
	s.Tick(now)
	if len(s.tombs.departed) != 0 {
		t.Fatalf("%d tombstones left after quiescence + TTL", len(s.tombs.departed))
	}
}

// PROBE-before-release under churn: a lagging member stalls the window
// and is probed; when it departs before answering, the next release
// pass proceeds without it instead of stalling forever.
func TestProbeBeforeReleaseMemberDeparts(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.SndBuf = 4 * (1000 + packet.HeaderSize)
		c.Mode = HRMC
		c.MinBufRTTs = 1
	})
	now := sim.Time(0)
	if n := s.Write(now, make([]byte, 4000)); n != 4000 {
		t.Fatalf("Write = %d, want the full window", n)
	}
	s.HandlePacket(now, 1, fb(packet.TypeJoin, 0)) // joined, holds nothing
	now += kernel.Jiffy
	s.Tick(now)
	if got := len(dataOuts(s.Outgoing())); got != 4 {
		t.Fatalf("sent %d data packets, want 4", got)
	}

	// Let the MINBUF hold expire with the window full: release must
	// stall on the lagging member and probe it.
	now += 10 * kernel.Jiffy
	s.Tick(now)
	outs := s.Outgoing()
	probe := findOut(outs, packet.TypeProbe)
	if probe == nil {
		t.Fatal("no PROBE for the lagging member at the release deadline")
	}
	if probe.Dest.Multicast || probe.Dest.Node != 1 {
		t.Fatalf("PROBE dest = %+v, want unicast to node 1", probe.Dest)
	}
	if !s.stalled || s.wnd.Len() != 4 {
		t.Fatalf("window not stalled on the lagging member (stalled=%v len=%d)", s.stalled, s.wnd.Len())
	}

	// The member departs between PROBE and release.
	s.HandlePacket(now, 1, fb(packet.TypeLeave, 0))
	now += kernel.Jiffy
	s.Tick(now)
	s.Outgoing()
	if s.wnd.Len() != 0 {
		t.Fatalf("window still holds %d packets after the lagging member left", s.wnd.Len())
	}
	if s.members.Len() != 0 {
		t.Fatalf("membership not empty after LEAVE: %d", s.members.Len())
	}
	// The probe must not haunt the departed member: no retries, no
	// NAK_ERR, and new writes flow again.
	if s.Stats().NakErrsSent != 0 {
		t.Fatal("departure produced a NAK_ERR")
	}
	if n := s.Write(now, make([]byte, 1000)); n != 1000 {
		t.Fatalf("Write after release = %d, want 1000", n)
	}
}

// TestLostJoinStillReleases is the regression test for the stranded
// sender: with ExpectedReceivers set, a receiver whose only JOIN was lost
// and whose stream ended before the JOIN retry stops retrying, so the
// sender hears its final UPDATE and its LEAVE from an address it never
// admitted. That feedback is an implicit join: it must count toward the
// expected population, or the release check waits for a receiver that
// has already come and gone and Close never completes.
func TestLostJoinStillReleases(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.ExpectedReceivers = 1
		c.MinBufRTTs = 1
		c.InitialRTT = sim.Millisecond
	})
	s.Write(0, make([]byte, 12*1000))
	s.Close(0) // 12 DATA and the FIN: 13 packets, seq 0..12
	now := sim.Time(0)
	for sent := 0; sent < 13; {
		now += kernel.Jiffy
		s.Tick(now)
		sent += len(dataOuts(s.Outgoing()))
	}
	// The JOIN never arrived. The receiver delivered everything, said so,
	// and left.
	const stranger = packet.NodeID(7)
	s.HandlePacket(now, stranger, fb(packet.TypeUpdate, 13))
	s.HandlePacket(now, stranger, fb(packet.TypeLeave, 13))
	if s.Stats().JoinsReceived != 0 {
		t.Fatal("test bug: a JOIN reached the sender")
	}
	if s.MaxJoined() != 1 {
		t.Errorf("MaxJoined = %d: the stranger's feedback did not count as a join", s.MaxJoined())
	}
	for end := now + 5*sim.Second; now < end && !s.Done(); {
		now += kernel.Jiffy
		s.Tick(now)
		s.Outgoing()
	}
	if !s.Done() {
		t.Fatalf("sender stranded: %d release stalls, window %d bytes", s.Stats().ReleaseStalls, s.WindowBytes())
	}
}
