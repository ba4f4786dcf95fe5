package rate

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newC() *Controller {
	return New(Config{MinRate: 1000, MaxRate: 1e6, MSS: 100})
}

func TestStartsAtMinInSlowStart(t *testing.T) {
	c := newC()
	if c.Rate(0) != 1000 {
		t.Errorf("initial rate = %v, want MinRate", c.Rate(0))
	}
	if c.Phase(0) != SlowStart {
		t.Errorf("initial phase = %v", c.Phase(0))
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	c := newC()
	rtt := 10 * sim.Millisecond
	now := sim.Time(0)
	// First call sets the growth clock; growth needs a full RTT.
	c.MaybeGrow(now, rtt)
	r0 := c.Rate(now)
	now += rtt
	c.MaybeGrow(now, rtt)
	if got := c.Rate(now); got != r0*2 {
		t.Errorf("after one RTT: rate = %v, want %v", got, r0*2)
	}
	// Sub-RTT calls must not grow again.
	c.MaybeGrow(now+rtt/2, rtt)
	if got := c.Rate(now); got != r0*2 {
		t.Errorf("sub-RTT growth happened: %v", got)
	}
}

func TestSlowStartCapsAtSsthreshThenLinear(t *testing.T) {
	c := newC()
	rtt := 10 * sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < 40; i++ {
		now += rtt
		c.MaybeGrow(now, rtt)
	}
	if c.Rate(now) != 1e6 {
		t.Errorf("rate did not reach MaxRate: %v", c.Rate(now))
	}
	if c.Phase(now) != CongestionAvoidance {
		t.Errorf("phase after reaching cap = %v", c.Phase(now))
	}
}

func TestCongestionHalvesAndGoesLinear(t *testing.T) {
	c := newC()
	rtt := 10 * sim.Millisecond
	now := rtt
	for i := 0; i < 6; i++ {
		c.MaybeGrow(now, rtt)
		now += rtt
	}
	before := c.Rate(now)
	c.OnCongestion(now, rtt, 0)
	if got := c.Rate(now); got != before/2 {
		t.Errorf("after congestion: rate = %v, want %v", got, before/2)
	}
	if c.Phase(now) != CongestionAvoidance {
		t.Errorf("phase = %v, want congestion-avoidance", c.Phase(now))
	}
	// Linear growth: one MSS per RTT as a rate increment.
	r := c.Rate(now)
	now += rtt
	c.MaybeGrow(now, rtt)
	wantInc := float64(100) / rtt.Seconds()
	if got := c.Rate(now); got != r+wantInc {
		t.Errorf("linear increase = %v, want %v", got-r, wantInc)
	}
}

func TestCongestionRespectsSuggestedRate(t *testing.T) {
	c := newC()
	c.rate = 800000
	c.OnCongestion(sim.Second, sim.Millisecond, 100000)
	if got := c.Rate(sim.Second); got != 100000 {
		t.Errorf("suggested rate ignored: %v", got)
	}
	// A suggestion above rate/2 does not raise the cut.
	c2 := newC()
	c2.rate = 800000
	c2.OnCongestion(sim.Second, sim.Millisecond, 700000)
	if got := c2.Rate(sim.Second); got != 400000 {
		t.Errorf("cut = %v, want 400000", got)
	}
}

func TestCongestionFloorsAtMinRate(t *testing.T) {
	c := newC()
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		now += sim.Second
		c.OnCongestion(now, sim.Millisecond, 0)
	}
	if got := c.Rate(now); got != 1000 {
		t.Errorf("rate fell below MinRate: %v", got)
	}
}

func TestOneCutPerRTT(t *testing.T) {
	c := newC()
	c.rate = 800000
	rtt := 100 * sim.Millisecond
	now := sim.Second
	c.OnCongestion(now, rtt, 0)
	r := c.Rate(now)
	// A second cut within the same RTT is ignored (burst of NAKs from
	// many receivers counts once).
	c.OnCongestion(now+rtt/2, rtt, 0)
	if got := c.Rate(now + rtt/2); got != r {
		t.Errorf("second cut within an RTT applied: %v", got)
	}
	c.OnCongestion(now+2*rtt, rtt, 0)
	if got := c.Rate(now + 2*rtt); got != r/2 {
		t.Errorf("cut after an RTT not applied: %v", got)
	}
}

func TestUrgentStopsAndRestartsFromMin(t *testing.T) {
	c := newC()
	rtt := 10 * sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < 6; i++ {
		now += rtt
		c.MaybeGrow(now, rtt)
	}
	if c.Rate(now) <= 1000 {
		t.Fatal("setup: rate did not grow")
	}
	c.OnUrgent(now, rtt)
	if got := c.Rate(now); got != 0 {
		t.Errorf("rate while stopped = %v, want 0", got)
	}
	if c.Allowance(now+rtt) != 0 {
		t.Error("allowance while stopped is non-zero")
	}
	if until, ok := c.StoppedUntil(); !ok || until != now+2*rtt {
		t.Errorf("StoppedUntil = %v,%v, want %v", until, ok, now+2*rtt)
	}
	// After two RTTs transmission resumes at MinRate in slow start.
	resume := now + 2*rtt
	if got := c.Rate(resume); got != 1000 {
		t.Errorf("rate after stop = %v, want MinRate", got)
	}
	if c.Phase(resume) != SlowStart {
		t.Errorf("phase after stop = %v, want slow-start", c.Phase(resume))
	}
}

func TestUrgentExtendsStop(t *testing.T) {
	c := newC()
	rtt := 10 * sim.Millisecond
	c.OnUrgent(0, rtt)
	c.OnUrgent(rtt, rtt) // second urgent while stopped extends
	if until, _ := c.StoppedUntil(); until != 3*rtt {
		t.Errorf("extended stop = %v, want %v", until, 3*rtt)
	}
	if got := c.Rate(2 * rtt); got != 0 {
		t.Error("rate resumed during extended stop")
	}
}

func TestCongestionIgnoredWhileStopped(t *testing.T) {
	c := newC()
	c.OnUrgent(0, 10*sim.Millisecond)
	c.OnCongestion(sim.Millisecond, sim.Millisecond, 0)
	if c.Phase(sim.Millisecond) != Stopped {
		t.Error("congestion broke the urgent stop")
	}
}

func TestAllowanceAccrual(t *testing.T) {
	c := newC() // 1000 B/s min rate
	if got := c.Allowance(0); got != 0 {
		t.Errorf("initial allowance = %d", got)
	}
	// 10ms at 1000 B/s = 10 bytes.
	if got := c.Allowance(10 * sim.Millisecond); got != 10 {
		t.Errorf("allowance after 10ms = %d, want 10", got)
	}
	c.Spend(10)
	if got := c.Allowance(10 * sim.Millisecond); got != 0 {
		t.Errorf("allowance after spend = %d", got)
	}
}

func TestAllowanceBurstCap(t *testing.T) {
	c := newC()
	c.Allowance(0)
	// After a long idle the bucket must hold at most ~2 jiffies of rate
	// (with a 2×MSS floor so one full packet always fits).
	got := c.Allowance(10 * sim.Second)
	if got > 200 { // floor dominates at 1000 B/s (20ms*1000=20 < 2*MSS)
		t.Errorf("burst after idle = %d, want ≤ 2×MSS", got)
	}
}

func TestAdvertisedClamps(t *testing.T) {
	c := New(Config{MinRate: 1, MaxRate: 1e18, MSS: 1})
	c.rate = 1e15
	if c.Advertised() != ^uint32(0) {
		t.Error("huge rate not clamped to uint32 max")
	}
}

func TestSpendFloor(t *testing.T) {
	c := newC()
	c.Allowance(sim.Second)
	c.Spend(1 << 30)
	if c.tokens != 0 {
		t.Error("Spend drove tokens negative")
	}
}

// Property: under any event sequence the rate stays within
// [0 or MinRate, MaxRate]: zero only while stopped, never above the cap,
// never below the floor while running.
func TestPropRateBounds(t *testing.T) {
	f := func(events []uint8) bool {
		c := newC()
		now := sim.Time(0)
		rtt := 5 * sim.Millisecond
		for _, e := range events {
			now += sim.Time(e%13) * sim.Millisecond
			switch e % 4 {
			case 0:
				c.MaybeGrow(now, rtt)
			case 1:
				c.OnCongestion(now, rtt, float64(e)*1000)
			case 2:
				c.OnUrgent(now, rtt)
			case 3:
				a := c.Allowance(now)
				if a < 0 {
					return false
				}
				c.Spend(a / 2)
			}
			r := c.Rate(now)
			if r < 0 || r > 1e6 {
				return false
			}
			if r == 0 && c.Phase(now) != Stopped {
				return false
			}
			if c.Phase(now) != Stopped && r < 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: an urgent stop always ends, and the first rate after it is
// exactly MinRate in slow start.
func TestPropUrgentAlwaysRecovers(t *testing.T) {
	f := func(ms uint8) bool {
		c := newC()
		rtt := sim.Time(ms%50+1) * sim.Millisecond
		c.OnUrgent(sim.Second, rtt)
		end, ok := c.StoppedUntil()
		if !ok {
			return false
		}
		return c.Rate(end) == 1000 && c.Phase(end) == SlowStart
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetCeilingClampsAndFloors(t *testing.T) {
	c := newC()
	rtt := 10 * sim.Millisecond
	now := sim.Time(0)
	// Grow well past the ceiling we are about to impose.
	for i := 0; i < 8; i++ {
		now += rtt
		c.MaybeGrow(now, rtt)
	}
	if c.Rate(now) <= 4000 {
		t.Fatalf("setup: rate %v did not grow past 4000", c.Rate(now))
	}
	c.SetCeiling(4000)
	if got := c.Ceiling(); got != 4000 {
		t.Errorf("Ceiling() = %v, want 4000", got)
	}
	if got := c.Rate(now); got != 4000 {
		t.Errorf("rate after SetCeiling = %v, want clamped to 4000", got)
	}
	// Growth must respect the new ceiling.
	for i := 0; i < 8; i++ {
		now += rtt
		c.MaybeGrow(now, rtt)
	}
	if got := c.Rate(now); got > 4000 {
		t.Errorf("rate grew to %v past ceiling 4000", got)
	}
	// Raising the ceiling again lets the linear phase resume.
	c.SetCeiling(8000)
	for i := 0; i < 4; i++ {
		now += rtt
		c.MaybeGrow(now, rtt)
	}
	if got := c.Rate(now); got <= 4000 {
		t.Errorf("rate %v did not resume growth after ceiling raise", got)
	}
	// Ceilings below MinRate are floored at MinRate.
	c.SetCeiling(1)
	if got := c.Ceiling(); got != 1000 {
		t.Errorf("Ceiling() after sub-min set = %v, want MinRate 1000", got)
	}
}

// The bucket follows the driver's quantum and the flow's own rate: depth
// is two quanta of rate, at least one 64 KiB supersegment and at most
// two jiffies of rate; a beat funds half of it. The zero quantum is the
// jiffy, the paper's transmitter.
func TestBucketFollowsQuantum(t *testing.T) {
	for _, c := range []struct {
		quantum   sim.Time
		rate      float64
		depth     int
		beat      sim.Time
		perSecond int // pacing wakes a backlogged flow needs
	}{
		{0, 32e6, 640000, 10 * sim.Millisecond, 100},
		{0, 3e6, 60000, 10 * sim.Millisecond, 100},
		{sim.Millisecond, 1e9, 2000000, sim.Millisecond, 1000},
		{sim.Millisecond, 32e6, 64 << 10, 1024 * sim.Microsecond, 976}, // a supersegment every 2 ms of rate
		{sim.Millisecond, 3e6, 60000, 10 * sim.Millisecond, 100},       // ~21 packets once a jiffy
		{sim.Millisecond, 16e3, 2840, 10 * sim.Millisecond, 11},        // two packets: never less
	} {
		rc := New(Config{MinRate: c.rate, MaxRate: c.rate, MSS: 1420, Quantum: c.quantum})
		rc.Allowance(0)
		if got := rc.Allowance(sim.Second); got != c.depth {
			t.Errorf("quantum %v, %.0f B/s: depth %d, want %d", c.quantum, c.rate, got, c.depth)
		}
		if got := rc.Beat(); got != c.beat {
			t.Errorf("quantum %v, %.0f B/s: beat %v, want %v", c.quantum, c.rate, got, c.beat)
		}
		// Drain the bucket, then send whenever FundedAt says a burst is
		// funded: each wake must find at least a packet's worth, and a
		// second of them must carry a second of rate, to within a packet.
		now := sim.Second
		rc.Spend(rc.Allowance(now))
		sent, wakes := 0, 0
		for {
			at := rc.FundedAt(1<<30, 1420)
			if at > 2*sim.Second {
				break
			}
			now = max(now, at)
			a := rc.Allowance(now)
			if a < 1420 {
				t.Fatalf("quantum %v, %.0f B/s: woken at %v with %d bytes funded", c.quantum, c.rate, now, a)
			}
			rc.Spend(a)
			sent += a
			wakes++
		}
		if wakes != c.perSecond || float64(sent) < 0.99*c.rate-1420 || float64(sent) > c.rate {
			t.Errorf("quantum %v, %.0f B/s: %d wakes carried %d bytes in a second, want %d wakes", c.quantum, c.rate, wakes, sent, c.perSecond)
		}
	}
}
