package receiver

import (
	"io"
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/repair"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// Leaf-failover and escalate-or-decline unit tests: the receiver-side
// half of the repair-head failure model, exercised without a network.

const testHead = packet.NodeID(9)

// newLeaf builds a receiver attached to repair head testHead.
func newLeaf(t *testing.T, mod func(*Config)) *Receiver {
	t.Helper()
	return newR(t, func(c *Config) {
		c.RepairHead = testHead
		if mod != nil {
			mod(c)
		}
	})
}

// headNaks drains the addressed queue and returns the HEAD_NAKs bound
// for the configured head.
func headNaks(r *Receiver) []*packet.Packet {
	var naks []*packet.Packet
	for _, a := range r.OutgoingAddressed() {
		if a.To == testHead && a.Pkt.Type == packet.TypeHeadNak {
			naks = append(naks, a.Pkt)
		}
	}
	return naks
}

func TestLeafNakBudgetFailover(t *testing.T) {
	r := newLeaf(t, func(c *Config) {
		c.HeadNakRetryBudget = 2
		c.HeadSilenceTimeout = -1 // isolate the budget path
	})
	r.HandlePacket(0, data(0, "a"))
	r.HandlePacket(kernel.Jiffy, data(2, "c")) // seq 1 lost
	if got := len(headNaks(r)); got != 1 {
		t.Fatalf("first ask: %d HEAD_NAKs to head, want 1", got)
	}
	// The head answers nothing; retries back off until the budget is
	// spent and the leaf degrades to flat mode.
	var now sim.Time
	for now = 2 * kernel.Jiffy; r.Stats().HeadFailovers == 0 && now < 10*sim.Second; now += kernel.Jiffy {
		r.Advance(now)
		r.OutgoingAddressed()
		r.Outgoing()
	}
	if r.Stats().HeadFailovers != 1 {
		t.Fatal("retry budget exhausted but no failover")
	}
	// Flat mode: recovery and membership re-home to the sender.
	r.Advance(now + sim.Second)
	out := r.Outgoing()
	if findType(out, packet.TypeNak) == nil {
		t.Errorf("no sender-bound NAK after failover; got %v", typesOf(out))
	}
	if len(headNaks(r)) != 0 {
		t.Error("HEAD_NAK still addressed to the dead head after failover")
	}
}

func TestLeafHeadSilenceFailover(t *testing.T) {
	r := newLeaf(t, func(c *Config) {
		c.HeadNakRetryBudget = -1 // isolate the silence timer
		c.HeadSilenceTimeout = 500 * sim.Millisecond
	})
	// The JOIN goes to the head and is never answered: the silence clock
	// runs from the first response-expecting request.
	r.HandlePacket(0, data(0, "a"))
	r.OutgoingAddressed()
	r.Advance(400 * sim.Millisecond)
	if r.Stats().HeadFailovers != 0 {
		t.Fatal("failover before the silence timeout")
	}
	r.Advance(600 * sim.Millisecond)
	if r.Stats().HeadFailovers != 1 {
		t.Fatal("head silent past the timeout but no failover")
	}
	// The re-homed JOIN goes straight to the sender.
	if findType(r.Outgoing(), packet.TypeJoin) == nil {
		t.Error("no sender-bound JOIN after silence failover")
	}
}

func TestLeafSilenceClockClearedByHeadTraffic(t *testing.T) {
	r := newLeaf(t, func(c *Config) {
		c.HeadNakRetryBudget = -1
		c.HeadSilenceTimeout = 500 * sim.Millisecond
	})
	r.HandlePacket(0, data(0, "a"))
	r.OutgoingAddressed()
	// Any packet from the head proves it alive and resets the clock.
	r.HandleFrom(300*sim.Millisecond, testHead, &packet.Packet{Header: packet.Header{
		Type: packet.TypeJoinResponse,
	}})
	r.Advance(700 * sim.Millisecond)
	if r.Stats().HeadFailovers != 0 {
		t.Error("failover despite live head traffic inside the timeout")
	}
}

func TestLeafReadoptAfterFailover(t *testing.T) {
	r := newLeaf(t, func(c *Config) {
		c.HeadNakRetryBudget = -1
		c.HeadSilenceTimeout = 500 * sim.Millisecond
		c.ReadoptHead = true
	})
	r.HandlePacket(0, data(0, "a"))
	r.OutgoingAddressed()
	r.Advance(600 * sim.Millisecond)
	if r.Stats().HeadFailovers != 1 {
		t.Fatal("no failover to recover from")
	}
	r.Outgoing()
	// The restarted head speaks again: the leaf re-attaches, hands
	// membership back to the head, and retires its direct sender entry.
	r.HandleFrom(sim.Second, testHead, &packet.Packet{Header: packet.Header{
		Type: packet.TypeKeepalive, Seq: 0,
	}})
	if r.Stats().HeadReadoptions != 1 {
		t.Fatal("head traffic reappeared but no re-adoption")
	}
	var joinToHead bool
	for _, a := range r.OutgoingAddressed() {
		if a.To == testHead && a.Pkt.Type == packet.TypeJoin {
			joinToHead = true
		}
	}
	if !joinToHead {
		t.Error("no JOIN re-homed to the restarted head")
	}
	if findType(r.Outgoing(), packet.TypeLeave) == nil {
		t.Error("direct sender membership not retired with a LEAVE")
	}
}

func TestHeadDeclineRehomesNak(t *testing.T) {
	r := newLeaf(t, func(c *Config) {
		c.HeadNakRetryBudget = -1
		c.HeadSilenceTimeout = -1
	})
	r.HandlePacket(0, data(0, "a"))
	r.HandlePacket(kernel.Jiffy, data(2, "c")) // seq 1 lost
	if got := len(headNaks(r)); got != 1 {
		t.Fatalf("first ask: %d HEAD_NAKs, want 1", got)
	}
	// The head refuses the range: further asks must go end-to-end.
	r.HandleFrom(2*kernel.Jiffy, testHead, &packet.Packet{Header: packet.Header{
		Type: packet.TypeHeadDecline, Seq: 1, Length: 1,
	}})
	if r.Stats().HeadDeclinesHeard != 1 {
		t.Fatal("decline not counted")
	}
	nak := findType(r.Outgoing(), packet.TypeNak)
	if nak == nil {
		t.Fatal("no direct sender NAK after the head's decline")
	}
	if nak.Seq != 1 {
		t.Errorf("direct NAK seq = %d, want 1", nak.Seq)
	}
	if len(headNaks(r)) != 0 {
		t.Error("declined range still asked of the head")
	}
	// The sender's NAK_ERR ends recovery: the hole is authoritatively
	// dead and the NAK manager stops asking.
	r.HandlePacket(3*kernel.Jiffy, &packet.Packet{Header: packet.Header{
		Type: packet.TypeNakErr, Seq: 1, Length: 1,
	}})
	if r.Stats().UnrecoverableHoles != 1 {
		t.Error("NAK_ERR did not dead-mark the hole")
	}
	r.Advance(sim.Second)
	if out := r.Outgoing(); findType(out, packet.TypeNak) != nil {
		t.Error("NAK resent for a dead hole")
	}
}

// TestHeadColdWindowDeclineChain is the head-side half of
// escalate-or-decline: a restarted head (cold retained window, anchored
// mid-stream) cannot serve history, so a member's HEAD_NAK is escalated
// to the sender; the sender's NAK_ERR turns into a multicast
// HEAD_DECLINE; and a repeat ask is declined directly without
// re-escalating.
func TestHeadColdWindowDeclineChain(t *testing.T) {
	member := packet.NodeID(7)
	r := newR(t, func(c *Config) {
		c.Head = &repair.Config{}
		c.JoinInProgress = true
	})
	// Restart mid-stream: the window anchors at the first packet seen.
	r.HandlePacket(0, data(100, "x"))
	r.Outgoing()
	// A member asks for history below the anchor: nothing retained,
	// nothing in the window -> escalate.
	r.HandleFrom(kernel.Jiffy, member, &packet.Packet{Header: packet.Header{
		Type: packet.TypeHeadNak, Seq: 50, Length: 2, RateAdv: 50,
	}})
	esc := findType(r.Outgoing(), packet.TypeNak)
	if esc == nil {
		t.Fatal("cold-window HEAD_NAK not escalated to the sender")
	}
	if esc.Seq != 50 || esc.Length != 2 {
		t.Errorf("escalated NAK covers seq=%d len=%d, want 50,2", esc.Seq, esc.Length)
	}
	if esc.Tries != 1 {
		t.Error("escalated NAK not marked re-asked: its multi-hop timing would poison the sender's RTT estimate")
	}
	if r.Stats().HeadNaksEscalated != 2 {
		t.Errorf("HeadNaksEscalated = %d, want 2", r.Stats().HeadNaksEscalated)
	}
	// The sender refuses: the head records the decline and multicasts an
	// explicit HEAD_DECLINE into the subtree — never silence.
	r.HandlePacket(2*kernel.Jiffy, &packet.Packet{Header: packet.Header{
		Type: packet.TypeNakErr, Seq: 50, Length: 2,
	}})
	if r.Stats().HeadDeclinesSent != 1 {
		t.Fatal("NAK_ERR at a head did not produce a HEAD_DECLINE")
	}
	dec := findType(r.OutgoingMulticast(), packet.TypeHeadDecline)
	if dec == nil {
		t.Fatal("HEAD_DECLINE not multicast into the subtree")
	}
	if dec.Seq != 50 || dec.Length != 2 {
		t.Errorf("HEAD_DECLINE covers seq=%d len=%d, want 50,2", dec.Seq, dec.Length)
	}
	// A repeat ask (past the head's 4-jiffy suppression interval) is
	// declined directly: re-escalating a range the sender already refused
	// cannot help.
	r.HandleFrom(10*kernel.Jiffy, member, &packet.Packet{Header: packet.Header{
		Type: packet.TypeHeadNak, Seq: 50, Length: 2, RateAdv: 50,
	}})
	if r.Stats().HeadNaksEscalated != 2 {
		t.Error("declined range re-escalated to the sender")
	}
	if r.Stats().HeadDeclinesSent != 2 {
		t.Error("repeat ask for a declined range drew no HEAD_DECLINE")
	}
}

// TestHeadDrainTimeoutBoundsLeave is the regression test for the
// deferred-LEAVE drain bound: a head that has delivered the whole
// stream defers its LEAVE for a wedged member, but only up to
// repair.LeaveDrainTimeout — one dead member must not pin the head (and
// the sender's state for it) forever.
func TestHeadDrainTimeoutBoundsLeave(t *testing.T) {
	member := packet.NodeID(7)
	const drain = repair.LeaveDrainTimeout
	r := newR(t, func(c *Config) { c.Head = &repair.Config{} })
	// A member joins far behind and never advances.
	r.HandleFrom(0, member, &packet.Packet{Header: packet.Header{
		Type: packet.TypeJoin, Seq: 0,
	}})
	// The head itself receives and consumes the entire (tiny) stream.
	fin := data(0, "end")
	fin.Flags = packet.FlagFIN
	r.HandlePacket(kernel.Jiffy, fin)
	buf := make([]byte, 16)
	for {
		if _, err := r.Read(kernel.Jiffy, buf); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if !r.FinDelivered() {
		t.Fatal("stream not fully delivered")
	}
	// The aggregate timer drives maybeLeave; within the drain bound the
	// LEAVE is deferred for the wedged member.
	var now sim.Time
	var leave *packet.Packet
	for now = 2 * kernel.Jiffy; leave == nil && now < drain+5*sim.Second; now += kernel.Jiffy {
		r.Advance(now)
		if leave = findType(r.Outgoing(), packet.TypeLeave); leave != nil && now < drain {
			t.Fatalf("LEAVE at %v, inside the drain bound %v", now, drain)
		}
		r.OutgoingAddressed()
	}
	if leave == nil {
		t.Fatal("wedged member held the head's LEAVE past the drain bound")
	}
	if r.Stats().HeadDrainTimeouts != 1 {
		t.Errorf("HeadDrainTimeouts = %d, want 1", r.Stats().HeadDrainTimeouts)
	}
	// The LEAVE still reports the subtree minimum, so the sender's
	// release check stays safe until the member is evicted there too.
	if got := seqspace.Seq(leave.Seq); got != 0 {
		t.Errorf("departing head reported next-expected %d, want subtree minimum 0", got)
	}
}
