package netsim

import (
	"testing"

	"repro/internal/app"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
)

// buildTransfer wires a sender and n receivers in group g for a transfer
// of size bytes with per-socket buffers of buf bytes.
func buildTransfer(seed uint64, lineRate float64, n int, g Group, size int64, buf int, mode sender.Mode) *Network {
	cfg := DefaultConfig(lineRate, seed)
	net := New(cfg)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = lineRate
	s := sender.New(sender.Config{
		SndBuf:            buf,
		Mode:              mode,
		Rate:              rcfg,
		ExpectedReceivers: n,
	})
	net.AddSender(s, app.NewMemorySource(size))
	rmode := receiver.HRMC
	if mode == sender.RMC {
		rmode = receiver.RMC
	}
	for i := 0; i < n; i++ {
		r := receiver.New(receiver.Config{
			RcvBuf: buf,
			Mode:   rmode,
		})
		net.AddReceiver(r, g, app.MemorySink{})
	}
	return net
}

func TestLosslessTransferDeliversEverything(t *testing.T) {
	lossless := Group{Name: "L", Delay: 2 * sim.Millisecond, Loss: 0}
	net := buildTransfer(1, Rate10Mbps, 3, lossless, 1<<20, 256<<10, sender.HRMC)
	res := net.Run(120 * sim.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete")
	}
	for i, r := range net.Receivers() {
		if r.Received != 1<<20 {
			t.Errorf("receiver %d delivered %d bytes, want %d", i, r.Received, 1<<20)
		}
		if r.BadBytes != 0 {
			t.Errorf("receiver %d saw %d corrupted bytes", i, r.BadBytes)
		}
		if r.M.Stats().NaksSent != 0 {
			t.Errorf("receiver %d sent %d NAKs on a lossless link", i, r.M.Stats().NaksSent)
		}
	}
	if res.ThroughputMbps() <= 0.5 {
		t.Errorf("throughput %.2f Mbps is implausibly low", res.ThroughputMbps())
	}
	if res.ThroughputMbps() > 10 {
		t.Errorf("throughput %.2f Mbps exceeds the 10 Mbps line", res.ThroughputMbps())
	}
}

// The paper's central claim: H-RMC provides 100% reliability even with
// small kernel buffers and a lossy wide-area path.
func TestReliabilityUnderWANLoss(t *testing.T) {
	net := buildTransfer(7, Rate10Mbps, 4, GroupC, 512<<10, 64<<10, sender.HRMC)
	res := net.Run(600 * sim.Second)
	if !res.Completed {
		t.Fatal("H-RMC transfer did not complete under 2% loss")
	}
	totalDrops := res.NICDrops + res.RouterDrops
	if totalDrops == 0 {
		t.Fatal("loss model produced no drops; test is vacuous")
	}
	for i, r := range net.Receivers() {
		if r.Received != 512<<10 || r.BadBytes != 0 {
			t.Errorf("receiver %d: %d bytes, %d bad", i, r.Received, r.BadBytes)
		}
	}
	// Recovery must actually have happened.
	if net.Sender().M.Stats().Retransmissions == 0 {
		t.Error("no retransmissions despite drops")
	}
	// The H-RMC invariant: no NAK ever arrives for released data.
	if net.Sender().M.Stats().NakErrsSent != 0 {
		t.Errorf("H-RMC sent %d NAK_ERRs — released data a receiver needed", net.Sender().M.Stats().NakErrsSent)
	}
}

func TestReliabilityTinyBuffersHighLoss(t *testing.T) {
	// 16 KB buffers (≈11 packets) and 2% loss, with receivers whose
	// update period starts far beyond the sender's hold time and stays
	// beyond it: the stop-and-wait regime where probes must do the heavy
	// lifting.
	cfg := DefaultConfig(Rate10Mbps, 3)
	net := New(cfg)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate10Mbps
	s := sender.New(sender.Config{
		SndBuf: 16 << 10, Rate: rcfg, ExpectedReceivers: 3,
	})
	net.AddSender(s, app.NewMemorySource(128<<10))
	for i := 0; i < 3; i++ {
		r := receiver.New(receiver.Config{
			RcvBuf:              16 << 10,
			InitialUpdatePeriod: 30 * sim.Second,
		})
		net.AddReceiver(r, GroupC, app.MemorySink{})
	}
	res := net.Run(600 * sim.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete with tiny buffers")
	}
	for i, r := range net.Receivers() {
		if r.Received != 128<<10 || r.BadBytes != 0 {
			t.Errorf("receiver %d: %d bytes, %d bad", i, r.Received, r.BadBytes)
		}
	}
	if net.Sender().M.Stats().ProbesSent == 0 {
		t.Error("tiny-buffer run sent no probes; release gating untested")
	}
	if net.Sender().M.Stats().NakErrsSent != 0 {
		t.Error("H-RMC violated the release invariant")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, int64) {
		net := buildTransfer(42, Rate10Mbps, 3, GroupB, 256<<10, 64<<10, sender.HRMC)
		res := net.Run(600 * sim.Second)
		return res.Duration, res.NICDrops + res.RouterDrops
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Errorf("same seed diverged: (%v,%d) vs (%v,%d)", d1, l1, d2, l2)
	}
	net := buildTransfer(43, Rate10Mbps, 3, GroupB, 256<<10, 64<<10, sender.HRMC)
	res := net.Run(600 * sim.Second)
	if res.Duration == d1 {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestRMCBaselineCompletesOnCleanLAN(t *testing.T) {
	net := buildTransfer(5, Rate10Mbps, 2, GroupA, 512<<10, 128<<10, sender.RMC)
	res := net.Run(300 * sim.Second)
	if !res.Completed {
		t.Fatal("RMC transfer did not complete on a near-lossless LAN")
	}
	for i, r := range net.Receivers() {
		if r.Received != 512<<10 || r.BadBytes != 0 {
			t.Errorf("receiver %d: %d bytes, %d bad", i, r.Received, r.BadBytes)
		}
	}
	// RMC receivers send no UPDATEs and answer no probes.
	for _, r := range net.Receivers() {
		if r.M.Stats().ProbesReceived != 0 {
			t.Error("RMC receiver processed a probe")
		}
	}
}

func TestUpdatesGiveSenderCompleteInformation(t *testing.T) {
	// The Figure 3 contrast in miniature: on a low-loss network the
	// H-RMC sender has complete receiver information at far more release
	// points than the RMC sender, because updates flow even when NAKs do
	// not.
	run := func(mode sender.Mode) float64 {
		net := buildTransfer(11, Rate10Mbps, 5, GroupA, 1<<20, 128<<10, mode)
		res := net.Run(600 * sim.Second)
		if !res.Completed {
			t.Fatalf("%v run did not complete", mode)
		}
		return net.Sender().M.Stats().ReleaseInfoRatio()
	}
	rmc := run(sender.RMC)
	hrmc := run(sender.HRMC)
	if hrmc <= rmc {
		t.Errorf("release-info ratio: H-RMC %.3f <= RMC %.3f; updates had no effect", hrmc, rmc)
	}
	if hrmc < 0.5 {
		t.Errorf("H-RMC release-info ratio %.3f is implausibly low on a clean LAN", hrmc)
	}
}

func TestThroughputGrowsWithBufferSize(t *testing.T) {
	tp := func(buf int) float64 {
		net := buildTransfer(9, Rate10Mbps, 3, GroupA, 2<<20, buf, sender.HRMC)
		res := net.Run(600 * sim.Second)
		if !res.Completed {
			t.Fatalf("run with %dK buffers did not complete", buf>>10)
		}
		return res.ThroughputMbps()
	}
	small := tp(16 << 10)
	large := tp(512 << 10)
	if large <= small {
		t.Errorf("throughput did not grow with buffer size: %0.2f (16K) vs %0.2f (512K)", small, large)
	}
}

func TestHeterogeneousGroupsAdaptToSlowest(t *testing.T) {
	// Test 4/5 shape: mixing in wide-area receivers pulls throughput
	// down toward the WAN number.
	run := func(mk func(net *Network)) float64 {
		cfg := DefaultConfig(Rate10Mbps, 21)
		net := New(cfg)
		rcfg := rate.DefaultConfig()
		rcfg.MaxRate = Rate10Mbps
		s := sender.New(sender.Config{SndBuf: 256 << 10, Rate: rcfg, ExpectedReceivers: 4})
		net.AddSender(s, app.NewMemorySource(1<<20))
		mk(net)
		res := net.Run(600 * sim.Second)
		if !res.Completed {
			t.Fatal("heterogeneous run did not complete")
		}
		return res.ThroughputMbps()
	}
	addR := func(net *Network, g Group) {
		net.AddReceiver(receiver.New(receiver.Config{RcvBuf: 256 << 10}), g, app.MemorySink{})
	}
	allB := run(func(net *Network) {
		for i := 0; i < 4; i++ {
			addR(net, GroupB)
		}
	})
	mixed := run(func(net *Network) {
		addR(net, GroupB)
		addR(net, GroupB)
		addR(net, GroupB)
		addR(net, GroupC)
	})
	if mixed >= allB {
		t.Errorf("adding a WAN receiver did not reduce throughput: mixed %.2f >= allB %.2f", mixed, allB)
	}
}

func TestDiskSinkSlowsButCompletes(t *testing.T) {
	cfg := DefaultConfig(Rate10Mbps, 31)
	net := New(cfg)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate10Mbps
	s := sender.New(sender.Config{SndBuf: 128 << 10, Rate: rcfg, ExpectedReceivers: 2})
	diskRng := sim.NewRNG(99)
	net.AddSender(s, app.NewDiskSource(1<<20, app.DefaultDiskConfig(diskRng.Stream(1))))
	for i := 0; i < 2; i++ {
		r := receiver.New(receiver.Config{RcvBuf: 128 << 10})
		net.AddReceiver(r, GroupA, app.NewDiskSink(app.DefaultDiskConfig(diskRng.Stream(uint64(i)+2))))
	}
	res := net.Run(600 * sim.Second)
	if !res.Completed {
		t.Fatal("disk-to-disk transfer did not complete")
	}
	for i, r := range net.Receivers() {
		if r.Received != 1<<20 || r.BadBytes != 0 {
			t.Errorf("receiver %d: %d bytes, %d bad", i, r.Received, r.BadBytes)
		}
	}
}
