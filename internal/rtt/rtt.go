// Package rtt implements the round-trip-time estimation H-RMC inherits
// from RMC: Karn's algorithm [Karn & Partridge, SIGCOMM '87] applied to
// the multicast setting, where the sender tracks the round trip time to
// the *most distant* receiver and uses it to pace window advancement,
// probe rate-limiting, and retransmission backoff.
//
// Karn's two rules are preserved:
//
//  1. Samples from retransmitted packets are ambiguous and are never fed
//     to the estimator (callers discard samples when Tries > 0).
//  2. On retransmission the timeout is backed off exponentially and the
//     backed-off value is kept until a sample from an unambiguous
//     exchange arrives.
//
// Because the protocol must adapt to the slowest receiver, the estimator
// converges upward quickly (a sample above the smoothed estimate pulls
// hard) and decays downward slowly (a fast sample from a near receiver
// must not erase what is known about a distant one).
package rtt

import "repro/internal/sim"

// Estimator tracks a smoothed round trip time with mean-deviation, in the
// style of Jacobson/Karels as used by TCP, with asymmetric gain as
// described in the package comment.
type Estimator struct {
	// InitialRTT seeds the estimate before any sample arrives.
	initial sim.Time
	srtt    sim.Time
	rttvar  sim.Time
	samples int
	backoff uint // exponential backoff shift applied to RTO
}

// Gains, expressed as divisor shifts like the TCP implementation:
// alpha = 1/8 for downward movement, beta = 1/4 for the deviation.
const (
	alphaShift = 3
	betaShift  = 2
	upGain     = 2 // divisor for upward movement: gain 1/2, fast rise
)

// defaultInitialRTT is used when the caller provides none; it matches a
// campus LAN-to-MAN guess and adapts within a few samples.
const defaultInitialRTT = 10 * sim.Millisecond

// maxRTT clamps the estimate and the RTO against pathological samples.
const maxRTT = 10 * sim.Second

// New returns an estimator seeded with the given initial RTT. Zero or
// negative initial values select defaultInitialRTT.
func New(initial sim.Time) *Estimator {
	if initial <= 0 {
		initial = defaultInitialRTT
	}
	return &Estimator{initial: initial}
}

// Samples returns the number of unambiguous samples consumed.
func (e *Estimator) Samples() int { return e.samples }

// RTT returns the current smoothed estimate of the round trip time to the
// most distant receiver.
func (e *Estimator) RTT() sim.Time {
	if e.samples == 0 {
		return e.initial
	}
	return e.srtt
}

// Sample feeds one unambiguous round-trip measurement. Callers enforce
// Karn's first rule (never sample a retransmitted exchange). Non-positive
// samples are ignored.
func (e *Estimator) Sample(m sim.Time) {
	if m <= 0 {
		return
	}
	if m > maxRTT {
		m = maxRTT
	}
	if e.samples == 0 {
		e.srtt = m
		e.rttvar = m / 2
	} else {
		diff := m - e.srtt
		if diff > 0 {
			// Distant-receiver sample: rise fast.
			e.srtt += diff / upGain
		} else {
			// Near-receiver sample: decay slowly.
			e.srtt += diff >> alphaShift
		}
		if diff < 0 {
			diff = -diff
		}
		e.rttvar += (diff - e.rttvar) >> betaShift
	}
	if e.srtt < sim.Microsecond {
		e.srtt = sim.Microsecond
	}
	e.samples++
	e.backoff = 0 // Karn: a good sample clears the backoff
}

// RTO returns the retransmission/probe timeout: srtt + 4*rttvar with the
// current exponential backoff applied, clamped to [1ms, max].
func (e *Estimator) RTO() sim.Time {
	base := e.RTT() + 4*e.rttvar
	if e.samples == 0 {
		base = 2 * e.initial
	}
	rto := base << e.backoff
	if rto < sim.Millisecond {
		rto = sim.Millisecond
	}
	if rto > maxRTT || rto <= 0 { // overflow guard on large backoff
		rto = maxRTT
	}
	return rto
}

// Backoff doubles the timeout (Karn's second rule); it saturates rather
// than overflowing.
func (e *Estimator) Backoff() {
	if e.backoff < 16 {
		e.backoff++
	}
}

// Var returns the current mean deviation.
func (e *Estimator) Var() sim.Time { return e.rttvar }
