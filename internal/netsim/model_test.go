package netsim

import (
	"testing"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
)

func TestCPUCostModel(t *testing.T) {
	// The paper's measured host cost: (10 + 0.025·l) µs.
	if got := cpuCost(0); got != 10*sim.Microsecond {
		t.Errorf("cpuCost(0) = %v, want 10µs", got)
	}
	if got := cpuCost(1400); got != 45*sim.Microsecond {
		t.Errorf("cpuCost(1400) = %v, want 45µs", got)
	}
}

func TestHostCPUSerializes(t *testing.T) {
	n := New(DefaultConfig(Rate10Mbps, 1))
	h := host{net: n}
	d1 := h.cpu(0, 1400) // 45µs
	d2 := h.cpu(0, 1400) // queued behind the first
	if d1 != 45*sim.Microsecond {
		t.Errorf("first completion %v", d1)
	}
	if d2 != 90*sim.Microsecond {
		t.Errorf("second completion %v, want serialized 90µs", d2)
	}
	// After idle, no residual queueing.
	d3 := h.cpu(sim.Second, 0)
	if d3 != sim.Second+10*sim.Microsecond {
		t.Errorf("post-idle completion %v", d3)
	}
}

func TestNICServiceRate(t *testing.T) {
	cfg := DefaultConfig(Rate10Mbps, 1)
	n := New(cfg)
	h := host{net: n}
	// 1250 bytes at 1.25 MB/s = exactly 1 ms on the wire.
	exit, dropped := h.nic(0, 1250)
	if dropped {
		t.Fatal("dropped with an empty queue")
	}
	if exit != sim.Millisecond {
		t.Errorf("exit = %v, want 1ms", exit)
	}
	exit2, _ := h.nic(0, 1250)
	if exit2 != 2*sim.Millisecond {
		t.Errorf("second exit = %v, want serialized 2ms", exit2)
	}
}

func TestNICQueueOverflowDrops(t *testing.T) {
	cfg := DefaultConfig(Rate10Mbps, 1)
	cfg.NICQueueBytes = 3000
	n := New(cfg)
	h := host{net: n}
	drops := 0
	for i := 0; i < 5; i++ {
		if _, dropped := h.nic(0, 1000); dropped {
			drops++
		}
	}
	// 3 packets fit the 3000-byte queue at time zero; the rest drop.
	if drops != 2 {
		t.Errorf("drops = %d, want 2", drops)
	}
	if n.NICDrops != 2 {
		t.Errorf("NICDrops counter = %d", n.NICDrops)
	}
	// Once the queue drains (3000 B at 1.25 MB/s = 2.4 ms), room again.
	if _, dropped := h.nic(3*sim.Millisecond, 1000); dropped {
		t.Error("dropped after the queue drained")
	}
}

func TestNICUnboundedQueue(t *testing.T) {
	cfg := DefaultConfig(Rate10Mbps, 1)
	cfg.NICQueueBytes = 0
	n := New(cfg)
	h := host{net: n}
	for i := 0; i < 1000; i++ {
		if _, dropped := h.nic(0, 1500); dropped {
			t.Fatal("unbounded queue dropped")
		}
	}
}

func TestGroupDefinitionsMatchPaper(t *testing.T) {
	if GroupA.Delay != 2*sim.Millisecond || GroupA.Loss != 0.00005 {
		t.Errorf("group A = %+v", GroupA)
	}
	if GroupB.Delay != 20*sim.Millisecond || GroupB.Loss != 0.005 {
		t.Errorf("group B = %+v", GroupB)
	}
	if GroupC.Delay != 100*sim.Millisecond || GroupC.Loss != 0.02 {
		t.Errorf("group C = %+v", GroupC)
	}
	if CorrelatedShare != 0.9 {
		t.Errorf("correlated share = %v, want the paper's 90%%", CorrelatedShare)
	}
}

// TestCorrelatedLossSharedWithinGroup verifies the 90/10 split: when the
// group router drops a multicast packet, every receiver in that group
// misses it together.
func TestCorrelatedLossSharedWithinGroup(t *testing.T) {
	lossy := Group{Name: "X", Delay: sim.Millisecond, Loss: 0.2}
	cfg := DefaultConfig(Rate10Mbps, 5)
	n := New(cfg)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate10Mbps
	s := sender.New(sender.Config{SndBuf: 256 << 10, Rate: rcfg, ExpectedReceivers: 4})
	n.AddSender(s, app.NewMemorySource(256<<10))
	for i := 0; i < 4; i++ {
		r := receiver.New(receiver.Config{RcvBuf: 256 << 10})
		n.AddReceiver(r, lossy, app.MemorySink{})
	}
	res := n.Run(600 * sim.Second)
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	if res.RouterDrops == 0 {
		t.Fatal("no correlated drops at 20% loss")
	}
	// With 90% of a 20% loss correlated and only 2% uncorrelated per
	// receiver, router drops (counted once per receiver) must dominate
	// NIC drops.
	if res.RouterDrops < res.NICDrops {
		t.Errorf("correlated drops %d < uncorrelated %d; split inverted", res.RouterDrops, res.NICDrops)
	}
}

func TestDeliveryLatencyFloor(t *testing.T) {
	// One packet, no loss: end-to-end latency is at least group delay +
	// lower-layer delay.
	cfg := DefaultConfig(Rate10Mbps, 3)
	n := New(cfg)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = Rate10Mbps
	s := sender.New(sender.Config{SndBuf: 64 << 10, Rate: rcfg, ExpectedReceivers: 1})
	n.AddSender(s, app.NewMemorySource(100))
	clean := Group{Name: "Z", Delay: 30 * sim.Millisecond, Loss: 0}
	r := receiver.New(receiver.Config{RcvBuf: 64 << 10})
	rh := n.AddReceiver(r, clean, app.MemorySink{})
	res := n.Run(60 * sim.Second)
	if !res.Completed {
		t.Fatal("single-packet transfer incomplete")
	}
	// First data can only arrive after one jiffy (first tick) plus the
	// one-way delay.
	if rh.FinishedAt < 40*sim.Millisecond {
		t.Errorf("finished at %v, faster than the physics allow", rh.FinishedAt)
	}
}

func TestResultThroughput(t *testing.T) {
	r := Result{Duration: sim.Second, Bytes: 1250000}
	if got := r.ThroughputMbps(); got != 10 {
		t.Errorf("ThroughputMbps = %v, want 10", got)
	}
	if (Result{}).ThroughputMbps() != 0 {
		t.Error("zero-duration throughput not zero")
	}
}

func TestNetworkStringAndGuards(t *testing.T) {
	n := New(DefaultConfig(Rate100Mbps, 1))
	if n.String() == "" {
		t.Error("empty String()")
	}
	defer func() {
		if recover() == nil {
			t.Error("Run without a sender did not panic")
		}
	}()
	n.Run(sim.Second)
}

func TestSecondSenderPanics(t *testing.T) {
	n := New(DefaultConfig(Rate10Mbps, 1))
	s := sender.New(sender.Config{})
	n.AddSender(s, app.NewMemorySource(1))
	defer func() {
		if recover() == nil {
			t.Error("second AddSender did not panic")
		}
	}()
	n.AddSender(sender.New(sender.Config{}), app.NewMemorySource(1))
}

func TestReceiverNodeIDsAreDense(t *testing.T) {
	n := New(DefaultConfig(Rate10Mbps, 1))
	n.AddSender(sender.New(sender.Config{}), app.NewMemorySource(1))
	var ids []packet.NodeID
	for i := 0; i < 3; i++ {
		rh := n.AddReceiver(receiver.New(receiver.Config{}), GroupA, app.MemorySink{})
		ids = append(ids, rh.id)
	}
	for i, id := range ids {
		if id != packet.NodeID(i+1) {
			t.Errorf("receiver %d has id %v", i, id)
		}
	}
}
