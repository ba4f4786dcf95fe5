// Fault-plane tests without a repair tier: the same crash/restart,
// partition, and burst machinery the chaos scenarios use must hold for
// plain receivers reporting straight to the sender.
package netsim

import (
	"testing"

	"repro/internal/app"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// faultNet builds a lossless flat network with n receivers and the
// given fault plan, using a 1 KiB MSS so restart re-anchoring is exact.
func faultNet(n int, size int64, plan *FaultPlan, seed uint64) *Network {
	cfg := DefaultConfig(Rate10Mbps, seed)
	cfg.Faults = plan
	net := New(cfg)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate10Mbps
	// The send buffer is deliberately large: with a small window the
	// sender would simply stop transmitting the moment release gates on
	// a faulted member, and the fault would never cost anyone a packet.
	s := sender.New(sender.Config{
		SndBuf:            512 << 10,
		Mode:              sender.HRMC,
		Rate:              rcfg,
		MSS:               1024,
		ExpectedReceivers: n,
	})
	net.AddSender(s, app.NewMemorySource(size))
	lossless := Group{Name: "L", Delay: 2 * sim.Millisecond, Loss: 0}
	for i := 0; i < n; i++ {
		r := receiver.New(receiver.Config{RcvBuf: 256 << 10, Mode: receiver.HRMC})
		net.AddReceiver(r, lossless, app.MemorySink{})
	}
	return net
}

// TestFaultFlatCrashRestart crashes a receiver mid-flow and restarts it
// with a cold machine (Rebuild + JoinInProgress). The sender must stall
// release on the silent member rather than lose its data, and the
// rebuilt machine must re-anchor mid-stream and deliver the remainder
// bit-exact.
func TestFaultFlatCrashRestart(t *testing.T) {
	const size = int64(1 << 20)
	plan := (&FaultPlan{}).
		CrashAt(300*sim.Millisecond, 2).
		RestartAt(900*sim.Millisecond, 2)
	net := faultNet(3, size, plan, 5)
	victim := net.Receivers()[1]
	victim.Rebuild = func() *receiver.Receiver {
		return receiver.New(receiver.Config{
			RcvBuf:         256 << 10,
			Mode:           receiver.HRMC,
			JoinInProgress: true,
		})
	}
	res := net.Run(120 * sim.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete after the restart")
	}
	for _, i := range []int{0, 2} {
		r := net.Receivers()[i]
		if r.Received != size || r.BadBytes != 0 {
			t.Errorf("receiver %d delivered %d bytes (%d bad), want %d exact",
				i, r.Received, r.BadBytes, size)
		}
	}
	if !victim.Finished || victim.BadBytes != 0 {
		t.Fatalf("victim: finished=%v bad=%d, want re-finished clean",
			victim.Finished, victim.BadBytes)
	}
	rb, ok := victim.M.RebasedAt()
	if !ok {
		t.Fatal("rebuilt victim never anchored mid-stream")
	}
	if want := size - int64(seqspace.Diff(rb, 0))*1024; victim.Received != want {
		t.Errorf("victim delivered %d bytes, want %d from anchor %d",
			victim.Received, want, rb)
	}
	if st := net.Sender().M.Stats(); st.ReleaseStalls == 0 {
		t.Error("sender never stalled release on the crashed member")
	}
}

// TestFaultFlatPartitionHeal cuts one receiver off from the sender for
// over a second; the member entry freezes, release stalls, and after
// the heal the receiver NAKs its way back to a bit-exact stream.
func TestFaultFlatPartitionHeal(t *testing.T) {
	const size = int64(1 << 20)
	plan := (&FaultPlan{}).
		PartitionAt(200*sim.Millisecond, 0, 1).
		HealAt(1500*sim.Millisecond, 0, 1)
	net := faultNet(3, size, plan, 6)
	res := net.Run(120 * sim.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete after the heal")
	}
	for i, r := range net.Receivers() {
		if r.Received != size || r.BadBytes != 0 {
			t.Errorf("receiver %d delivered %d bytes (%d bad), want %d exact",
				i, r.Received, r.BadBytes, size)
		}
	}
	st := net.Sender().M.Stats()
	if st.Retransmissions == 0 {
		t.Error("no retransmissions: the partition recovery was vacuous")
	}
	if st.ReleaseStalls == 0 {
		t.Error("sender never stalled release on the partitioned member")
	}
}

// TestFaultFlatBurstLoss runs a timed 30% loss burst against one
// receiver on an otherwise lossless network; ordinary NAK recovery must
// absorb it.
func TestFaultFlatBurstLoss(t *testing.T) {
	const size = int64(512 << 10)
	plan := (&FaultPlan{}).
		BurstLossAt(200*sim.Millisecond, 800*sim.Millisecond, 1, 0.3)
	net := faultNet(2, size, plan, 8)
	res := net.Run(120 * sim.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete through the burst")
	}
	for i, r := range net.Receivers() {
		if r.Received != size || r.BadBytes != 0 {
			t.Errorf("receiver %d delivered %d bytes (%d bad), want %d exact",
				i, r.Received, r.BadBytes, size)
		}
	}
	if net.FaultDrops() == 0 {
		t.Fatal("burst dropped nothing; test is vacuous")
	}
	if st := net.Sender().M.Stats(); st.Retransmissions == 0 {
		t.Error("no retransmissions: the burst recovery was vacuous")
	}
}

// TestFaultRestartLeavesLiveHostAlone holds the restart rule: a restart revives a crashed host and does nothing to a live
// one. A RestartAt with no CrashAt before it must leave the receiver's
// machine in place, Rebuild hook or not, and its stream bit-exact from
// the first byte.
func TestFaultRestartLeavesLiveHostAlone(t *testing.T) {
	const size = int64(1 << 20)
	net := faultNet(3, size, (&FaultPlan{}).RestartAt(300*sim.Millisecond, 2), 5)
	victim := net.Receivers()[1]
	machine := victim.M
	rebuilt := 0
	victim.Rebuild = func() *receiver.Receiver {
		rebuilt++
		return receiver.New(receiver.Config{RcvBuf: 256 << 10, Mode: receiver.HRMC, JoinInProgress: true})
	}
	if res := net.Run(120 * sim.Second); !res.Completed {
		t.Fatal("transfer did not complete")
	}
	if victim.M != machine || rebuilt != 0 {
		t.Errorf("a restart of a live host rebuilt its machine %d times", rebuilt)
	}
	for i, r := range net.Receivers() {
		if r.Received != size || r.BadBytes != 0 {
			t.Errorf("receiver %d delivered %d bytes (%d bad), want %d exact",
				i, r.Received, r.BadBytes, size)
		}
	}
}
