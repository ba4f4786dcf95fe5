package sender

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// feedbackRoundCost returns the sender-side cost of one feedback round,
// the fastest of three samples: every reporter delivers report (a flat
// receiver's UPDATE, or a repair head's AGG_UPDATE speaking for its
// subtree), then the sender ticks. The window is kept half-empty so
// release never stalls and the measurement isolates the feedback path.
func feedbackRoundCost(t *testing.T, reporters, rounds int, report *packet.Packet) time.Duration {
	s := newS(t, nil)
	now := sim.Time(0)
	s.Write(now, make([]byte, 32*1000))
	now += kernel.Jiffy
	s.Tick(now)
	s.Outgoing()
	for i := 0; i < reporters; i++ {
		s.HandlePacket(now, packet.NodeID(i+1), fb(packet.TypeJoin, 0))
	}
	s.Outgoing()
	var best time.Duration
	for sample := 0; sample < 3; sample++ {
		start := time.Now()
		for n := 0; n < rounds; n++ {
			now += kernel.Jiffy
			for i := 0; i < reporters; i++ {
				s.HandlePacket(now, packet.NodeID(i+1), report)
			}
			s.Tick(now)
			s.Outgoing()
		}
		if d := time.Since(start) / time.Duration(rounds); sample == 0 || d < best {
			best = d
		}
	}
	return best
}

// Sender feedback cost must fall by orders of magnitude behind repair
// heads (SMART's measure, PAPERS.md): at 10,000 receivers, a round in
// which every receiver reports straight to the sender must cost at
// least 10x the round in which 100 heads (1% of the population, as in
// the netsim hierarchy scenario) each report for their 99 leaves.
func TestFeedbackPlaneHierarchyRatio(t *testing.T) {
	const n, heads = 10000, 100
	flat := feedbackRoundCost(t, n, 3, fb(packet.TypeUpdate, 10))
	hier := feedbackRoundCost(t, heads, 300, agg(10, (n-heads)/heads))
	t.Logf("feedback round at %d receivers: flat %v, behind %d heads %v, %.0fx (want >= 10x)",
		n, flat, heads, hier, float64(flat)/float64(hier))
	if flat < 10*hier {
		t.Errorf("hierarchical feedback round only %.1fx cheaper than flat, want >= 10x",
			float64(flat)/float64(hier))
	}
}
