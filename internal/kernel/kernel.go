// Package kernel emulates the small slice of the Linux kernel environment
// the H-RMC driver lives in: the 10 ms jiffy clock and timer_list-style
// one-shot timers.
//
// The protocol machines in internal/sender and internal/receiver observe
// time only through these abstractions, so the same code runs unchanged
// under the discrete-event simulator and the live UDP transport — the Go
// analogue of the paper importing its kernel code into the CSIM simulator.
package kernel

import "repro/internal/sim"

// Jiffy is the Linux 2.1 timer tick on the paper's machines: 10 ms.
const Jiffy = 10 * sim.Millisecond

// Timer is a one-shot deadline, the analogue of a struct timer_list. The
// zero value is a disarmed timer. Timers do not fire by themselves: the
// owner polls Due (or Deadline) from whatever drives time forward.
type Timer struct {
	deadline sim.Time
	armed    bool
}

// Arm sets the timer to fire at the given absolute time, replacing any
// previous deadline (Linux mod_timer).
func (t *Timer) Arm(at sim.Time) {
	t.deadline = at
	t.armed = true
}

// ArmIn arms the timer d after now.
func (t *Timer) ArmIn(now, d sim.Time) { t.Arm(now + d) }

// Disarm stops the timer (Linux del_timer).
func (t *Timer) Disarm() { t.armed = false }

// Armed reports whether the timer has a pending deadline.
func (t *Timer) Armed() bool { return t.armed }

// Deadline returns the pending deadline, if armed.
func (t *Timer) Deadline() (sim.Time, bool) { return t.deadline, t.armed }

// Due reports whether the timer is armed with a deadline at or before now.
func (t *Timer) Due(now sim.Time) bool { return t.armed && t.deadline <= now }

// Fire disarms the timer and reports whether it was due. The owner calls
// this at the top of its handler so a re-arm inside the handler sticks.
func (t *Timer) Fire(now sim.Time) bool {
	if !t.Due(now) {
		return false
	}
	t.armed = false
	return true
}

// Earliest returns the soonest deadline among the given timers.
func Earliest(timers ...*Timer) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, t := range timers {
		if d, ok := t.Deadline(); ok && (!found || d < best) {
			best, found = d, true
		}
	}
	return best, found
}
