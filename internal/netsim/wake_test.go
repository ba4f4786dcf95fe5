package netsim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/rate"
	"repro/internal/receiver"
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
// this test was written, in two folds: the figure scenarios with the FEC
// transfer, and the repair tier, so a change that moves both drivers the
// same way fails here too and says which part moved; -short runs only
// the fig10 and fig15 scenarios and the repair tier, and logs.
func TestNextWakeComplete(t *testing.T) {
	pins := []struct {
		part    string
		packets int
		fnv     uint64
	}{
		{"figures", 474316, 0xd0a7fffee6bcd1b2},
		{"repair tier", 6010, 0x680e46d436c4a2f6},
	}
	drive := func(wakeDriven bool) map[string]*netsim.PacketHash {
		figures, tier := netsim.NewPacketHash(), netsim.NewPacketHash()
		netsim.OnNew(func(n *netsim.Network) { n.Seams(wakeDriven, figures.Add) })
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
		h := netsim.Tree{
			Heads: 3, Leaves: 8, Size: 4 << 20, Buf: 256 << 10,
			Seed:   7,
			Faults: (&netsim.FaultPlan{}).CrashAt(600*sim.Millisecond, 1),
			Group:  netsim.Group{Delay: 10 * sim.Millisecond, Loss: 0.02},
			Leaf:   func(c *receiver.Config) { c.HeadSilenceTimeout, c.HeadNakRetryBudget = sim.Second, 4 },
		}.Build(sender.Config{
			SndBuf: 256 << 10, Mode: sender.HRMC, Rate: rc,
			HeadSilenceTimeout: 3 * sim.Second, FailoverGrace: 2 * sim.Second,
		})
		h.Seams(wakeDriven, tier.Add)
		if res := h.Run(60 * sim.Second); !res.Completed || h.Sender().M.Stats().HeadsEvicted == 0 {
			t.Errorf("repair tier (wake-driven %v): completed %v, %d heads evicted", wakeDriven, res.Completed, h.Sender().M.Stats().HeadsEvicted)
		}
		return map[string]*netsim.PacketHash{"figures": figures, "repair tier": tier}
	}
	everyJiffy, onlyDue := drive(false), drive(true)
	for _, pin := range pins {
		part := pin.part
		e, d := everyJiffy[part], onlyDue[part]
		t.Logf("%s: every jiffy %d packets, FNV %016x; only when due %d packets, FNV %016x",
			part, e.Packets, e.Sum(), d.Packets, d.Sum())
		if e.Packets != d.Packets || e.Sum() != d.Sum() {
			t.Errorf("%s: a machine run only at its NextWake did not emit what one run every jiffy does", part)
		}
		if !testing.Short() && (e.Packets != pin.packets || e.Sum() != pin.fnv) {
			t.Errorf("%s: the machines emitted %d packets, FNV %016x; pinned: %d packets, FNV %016x",
				part, e.Packets, e.Sum(), pin.packets, pin.fnv)
		}
	}
}
