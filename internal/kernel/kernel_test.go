package kernel

import (
	"testing"

	"repro/internal/sim"
)

func TestJiffyConversions(t *testing.T) {
	if Jiffy != 10*sim.Millisecond {
		t.Fatalf("Jiffy = %v, want 10ms (the paper's 2.1 kernel tick)", Jiffy)
	}
}

func TestTimerLifecycle(t *testing.T) {
	var tm Timer
	if tm.Armed() {
		t.Error("zero Timer is armed")
	}
	if tm.Due(sim.Second) {
		t.Error("zero Timer is due")
	}
	tm.Arm(100 * sim.Millisecond)
	if !tm.Armed() {
		t.Error("Arm did not arm")
	}
	if tm.Due(99 * sim.Millisecond) {
		t.Error("due before deadline")
	}
	if !tm.Due(100 * sim.Millisecond) {
		t.Error("not due at deadline")
	}
	// Re-arm replaces the deadline (mod_timer semantics).
	tm.Arm(200 * sim.Millisecond)
	if tm.Due(150 * sim.Millisecond) {
		t.Error("re-armed timer kept the old deadline")
	}
	tm.Disarm()
	if tm.Armed() || tm.Due(sim.Second) {
		t.Error("Disarm did not disarm")
	}
}

func TestTimerFire(t *testing.T) {
	var tm Timer
	tm.ArmIn(0, 50*sim.Millisecond)
	if tm.Fire(40 * sim.Millisecond) {
		t.Error("Fire before deadline returned true")
	}
	if !tm.Fire(50 * sim.Millisecond) {
		t.Error("Fire at deadline returned false")
	}
	if tm.Armed() {
		t.Error("Fire left the timer armed")
	}
	if tm.Fire(sim.Second) {
		t.Error("second Fire returned true")
	}
}

func TestEarliest(t *testing.T) {
	var a, b, c Timer
	if _, ok := Earliest(&a, &b, &c); ok {
		t.Error("Earliest of disarmed timers reported a deadline")
	}
	b.Arm(30 * sim.Millisecond)
	c.Arm(10 * sim.Millisecond)
	d, ok := Earliest(&a, &b, &c)
	if !ok || d != 10*sim.Millisecond {
		t.Errorf("Earliest = %v,%v, want 10ms,true", d, ok)
	}
}
