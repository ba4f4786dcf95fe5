package netsim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/rate"
	"repro/internal/sender"
	"repro/internal/sim"
)

// NextWake is complete: a driver that runs a machine only on the jiffies
// at or past its NextWake emits, packet for packet, what one running it
// every jiffy emits. Every sender and receiver of the -quick figure
// scenarios, a lossy FEC transfer and a repair tier losing a head
// mid-flow are driven both ways; the FNV over every packet they hand the
// network has to agree. A deadline NextWake forgets is a hung flow under
// the session's deadline-driven driver, and this is where it shows first.
// The full run is also pinned to the packets the machines emitted when
// this test was written, so a change that moves both drivers the same way
// fails here too; -short runs only the fig10 and fig15 scenarios and logs.
func TestNextWakeComplete(t *testing.T) {
	const (
		wantPackets = 480856
		wantFNV     = 0x8ac81fb05f9c2854
	)
	drive := func(wakeDriven bool) *netsim.PacketHash {
		ph := netsim.NewPacketHash()
		netsim.OnNew(func(n *netsim.Network) { n.Seams(wakeDriven, ph.Add) })
		defer netsim.OnNew(nil)
		for _, r := range experiments.Registry() {
			if testing.Short() && r.Name != "fig10" && r.Name != "fig15" {
				continue
			}
			r.Run(experiments.Options{Seeds: 1, Quick: true})
		}
		m := experiments.Run(experiments.Scenario{
			Seed: 11, LineRate: netsim.Rate10Mbps, Buffer: 256 * experiments.KB, FileSize: 2 * experiments.MB,
			Receivers:    []netsim.Group{netsim.GroupA, netsim.GroupB, netsim.GroupB, netsim.GroupC},
			FECGroupSize: 8, Limit: 400 * sim.Second,
		})
		if !m.Completed || m.BadBytes != 0 {
			t.Errorf("lossy FEC transfer (wake-driven %v): completed %v, %v bad bytes", wakeDriven, m.Completed, m.BadBytes)
		}

		// Three repair heads front 24 leaves and one head dies mid-flow:
		// leaf silence clocks, failover, the sender's head sweep and its
		// release fence are all deadlines nothing else in the run arms.
		rc := rate.DefaultConfig()
		rc.MaxRate = netsim.Rate100Mbps
		h := netsim.NewHierarchy(netsim.HierarchyConfig{
			Heads: 3, LeavesPerHead: 8, Size: 4 << 20, Buf: 256 << 10, Seed: 7,
			Delay: 10 * sim.Millisecond, LeafDelay: 2 * sim.Millisecond,
			HeadLoss: 0.01, SubtreeLoss: 0.02, LeafLoss: 0.005,
			Faults:          (&netsim.FaultPlan{}).CrashAt(600*sim.Millisecond, 1),
			LeafHeadSilence: sim.Second, LeafNakBudget: 4,
		}, sender.Config{
			SndBuf: 256 << 10, Mode: sender.HRMC, Rate: rc,
			HeadSilenceTimeout: 3 * sim.Second, FailoverGrace: 2 * sim.Second,
		})
		h.Seams(wakeDriven, ph.Add)
		if res := h.Run(60 * sim.Second); !res.Completed || h.Sender().Stats().HeadsEvicted == 0 {
			t.Errorf("repair tier (wake-driven %v): completed %v, %d heads evicted", wakeDriven, res.Completed, h.Sender().Stats().HeadsEvicted)
		}
		return ph
	}
	everyJiffy, onlyDue := drive(false), drive(true)
	t.Logf("every jiffy: %d packets, FNV %016x; only when due: %d packets, FNV %016x",
		everyJiffy.Packets, everyJiffy.Sum(), onlyDue.Packets, onlyDue.Sum())
	if everyJiffy.Packets != onlyDue.Packets || everyJiffy.Sum() != onlyDue.Sum() {
		t.Error("a machine run only at its NextWake did not emit what one run every jiffy does")
	}
	if !testing.Short() && (everyJiffy.Packets != wantPackets || everyJiffy.Sum() != wantFNV) {
		t.Errorf("the machines emitted %d packets, FNV %016x; pinned: %d packets, FNV %016x",
			everyJiffy.Packets, everyJiffy.Sum(), wantPackets, uint64(wantFNV))
	}
}
