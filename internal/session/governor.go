// The fair-share governor: the allocation math, kept as a pure function
// so the redistribution policy is unit-testable without driving live
// flows, and the deadline that applies it. The governor water-fills:
// every flow reports a demand (how many bytes/second it could plausibly
// use next round), flows whose weighted share exceeds their demand are
// capped at it, and the slack they donate — a flow congestion-cut,
// urgently stopped or idle paces below its ceiling — is re-split among
// the still-hungry flows, proportional to weight, until no allocation
// changes.
package session

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// govern is the governor's deadline: sample every sender's demand,
// water-fill the budget and apply each share. It books itself a jiffy
// ahead — well inside the round trips the rate controllers react on —
// only while a sender is left to govern; SetBudget and a sender's attach
// book it again.
func (s *Session) govern(now sim.Time) {
	s.mu.Lock()
	budget, flows := s.cfg.Budget, append([]anyFlow(nil), s.flows...)
	s.mu.Unlock()
	var reqs []shareReq
	var active []*SenderFlow
	for _, f := range flows {
		if sf, sender := f.(*SenderFlow); sender {
			if req, ok := sf.demand(now, budget > 0); ok {
				active, reqs = append(active, sf), append(reqs, req)
			}
		}
	}
	if len(active) == 0 {
		return
	}
	for i, share := range fairShares(budget, reqs) {
		active[i].setShare(share)
	}
	s.book(&s.gov, now+kernel.Jiffy, true)
}

// shareReq is one governed sender flow's input to the allocator.
type shareReq struct {
	// Weight is the flow's fair-share weight (> 0).
	Weight float64
	// Demand is the most bandwidth the flow can use next round, in
	// bytes/second. math.Inf(1) means "as much as offered" — a flow
	// pacing at its ceiling whose appetite is unknown.
	Demand float64
}

// fairShares apportions budget among the requesting flows by iterative
// water-filling and returns each flow's allocation in bytes/second,
// parallel to reqs. Invariants: no flow is allocated more than its
// demand; the allocations sum to at most budget; slack donated by
// demand-capped flows is redistributed to uncapped flows proportional
// to their weights. Flows with non-positive weight get zero.
func fairShares(budget float64, reqs []shareReq) []float64 {
	out := make([]float64, len(reqs))
	if budget <= 0 {
		return out
	}
	unsat := make([]int, 0, len(reqs))
	for i, r := range reqs {
		if r.Weight > 0 {
			unsat = append(unsat, i)
		}
	}
	remaining := budget
	for len(unsat) > 0 && remaining > 0 {
		var totalW float64
		for _, i := range unsat {
			totalW += reqs[i].Weight
		}
		// Cap every flow whose proportional share covers its demand;
		// each cap frees slack, so re-run until a full pass caps no one.
		next := unsat[:0]
		capped := false
		for _, i := range unsat {
			share := remaining * reqs[i].Weight / totalW
			if !math.IsInf(reqs[i].Demand, 1) && reqs[i].Demand <= share {
				out[i] = reqs[i].Demand
				capped = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		var used float64
		for i := range out {
			used += out[i]
		}
		if !capped {
			// Everyone left is hungry: split what remains by weight.
			rem := budget - used
			for _, i := range unsat {
				out[i] = rem * reqs[i].Weight / totalW
			}
			break
		}
		remaining = budget - used
	}
	return out
}
