package rtt

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestInitialEstimate(t *testing.T) {
	e := New(0)
	if e.RTT() != defaultInitialRTT {
		t.Errorf("default initial RTT = %v", e.RTT())
	}
	e = New(5 * sim.Millisecond)
	if e.RTT() != 5*sim.Millisecond {
		t.Errorf("initial RTT = %v", e.RTT())
	}
	if e.Samples() != 0 {
		t.Error("fresh estimator has samples")
	}
}

func TestFirstSampleTakesOver(t *testing.T) {
	e := New(10 * sim.Millisecond)
	e.Sample(100 * sim.Millisecond)
	if e.RTT() != 100*sim.Millisecond {
		t.Errorf("first sample: RTT = %v, want 100ms", e.RTT())
	}
	if e.Var() != 50*sim.Millisecond {
		t.Errorf("first sample: var = %v, want 50ms", e.Var())
	}
}

func TestAsymmetricConvergence(t *testing.T) {
	// Start with a fast receiver, then a distant one appears: the
	// estimate must rise to near the distant RTT within a few samples.
	e := New(0)
	for i := 0; i < 10; i++ {
		e.Sample(2 * sim.Millisecond)
	}
	for i := 0; i < 8; i++ {
		e.Sample(200 * sim.Millisecond)
	}
	if e.RTT() < 150*sim.Millisecond {
		t.Errorf("estimate rose only to %v after distant receiver appeared", e.RTT())
	}
	// Now the distant receiver leaves; fast samples must decay the
	// estimate slowly — after the same number of samples it should still
	// remember the distant receiver to some degree.
	for i := 0; i < 8; i++ {
		e.Sample(2 * sim.Millisecond)
	}
	if e.RTT() < 50*sim.Millisecond {
		t.Errorf("estimate decayed too fast: %v", e.RTT())
	}
	// But eventually it converges down.
	for i := 0; i < 200; i++ {
		e.Sample(2 * sim.Millisecond)
	}
	if e.RTT() > 4*sim.Millisecond {
		t.Errorf("estimate stuck high: %v", e.RTT())
	}
}

func TestIgnoredSamples(t *testing.T) {
	e := New(10 * sim.Millisecond)
	e.Sample(0)
	e.Sample(-5)
	if e.Samples() != 0 {
		t.Error("non-positive samples were consumed")
	}
}

func TestSampleClamp(t *testing.T) {
	e := New(0)
	e.Sample(time100x(maxRTT))
	if e.RTT() > maxRTT {
		t.Errorf("sample not clamped: %v", e.RTT())
	}
}

func time100x(d sim.Time) sim.Time { return d * 100 }

func TestRTOBackoff(t *testing.T) {
	e := New(0)
	e.Sample(10 * sim.Millisecond)
	base := e.RTO()
	if base < 10*sim.Millisecond {
		t.Fatalf("RTO %v below srtt", base)
	}
	e.Backoff()
	if got := e.RTO(); got != base*2 && got != maxRTT {
		t.Errorf("one backoff: RTO = %v, want %v", got, base*2)
	}
	e.Backoff()
	if got := e.RTO(); got != base*4 && got != maxRTT {
		t.Errorf("two backoffs: RTO = %v", got)
	}
	// A good sample clears the backoff (Karn rule 2 exit condition).
	e.Sample(10 * sim.Millisecond)
	if got := e.RTO(); got > base*2 {
		t.Errorf("sample did not clear backoff: RTO = %v", got)
	}
}

func TestRTOSaturates(t *testing.T) {
	e := New(0)
	e.Sample(sim.Second)
	for i := 0; i < 40; i++ {
		e.Backoff()
	}
	if got := e.RTO(); got != maxRTT {
		t.Errorf("saturated RTO = %v, want %v", got, maxRTT)
	}
}

func TestRTOFloor(t *testing.T) {
	e := New(0)
	e.Sample(10 * sim.Microsecond)
	if e.RTO() < sim.Millisecond {
		t.Errorf("RTO %v below the 1ms floor", e.RTO())
	}
}

func TestRTONoSamples(t *testing.T) {
	e := New(20 * sim.Millisecond)
	if e.RTO() != 40*sim.Millisecond {
		t.Errorf("unseeded RTO = %v, want 2×initial", e.RTO())
	}
}

// Property: the estimate always stays within [1µs, maxRTT] and the
// sample counter matches the positive samples fed.
func TestPropEstimatorBounds(t *testing.T) {
	f := func(samples []int64) bool {
		e := New(0)
		fed := 0
		for _, s := range samples {
			d := sim.Time(s % int64(20*sim.Second))
			e.Sample(d)
			if d > 0 {
				fed++
			}
		}
		if e.Samples() != fed {
			return false
		}
		if fed > 0 && (e.RTT() < sim.Microsecond || e.RTT() > maxRTT) {
			return false
		}
		return e.RTO() >= sim.Millisecond && e.RTO() <= maxRTT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: feeding a constant sample converges the estimate to exactly
// that sample.
func TestPropConstantConvergence(t *testing.T) {
	f := func(ms uint16) bool {
		d := sim.Time(int64(ms)+1) * sim.Millisecond
		if d > maxRTT {
			d = maxRTT
		}
		e := New(0)
		for i := 0; i < 300; i++ {
			e.Sample(d)
		}
		got := e.RTT()
		lo, hi := d-d/8, d+d/8
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
