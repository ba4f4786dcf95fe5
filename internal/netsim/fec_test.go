package netsim

import (
	"testing"

	"repro/internal/app"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/trace"
)

// buildFecTransfer wires an FEC-enabled sender and n FEC-enabled
// receivers in group g. fecK == 0 degenerates to buildTransfer's HRMC
// shape, which keeps apples-to-apples comparisons honest. sink, when
// non-nil, receives every receiver's trace events.
func buildFecTransfer(seed uint64, lineRate float64, n int, g Group, size int64, buf int, fecK int, sink trace.Sink) *Network {
	cfg := DefaultConfig(lineRate, seed)
	net := New(cfg)
	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = lineRate
	s := sender.New(sender.Config{
		SndBuf:            buf,
		Mode:              sender.HRMC,
		Rate:              rcfg,
		ExpectedReceivers: n,
		FECGroupSize:      fecK,
	})
	net.AddSender(s, app.NewMemorySource(size))
	for i := 0; i < n; i++ {
		r := receiver.New(receiver.Config{
			RcvBuf:       buf,
			Mode:         receiver.HRMC,
			FECGroupSize: fecK,
			Trace:        sink,
		})
		net.AddReceiver(r, g, app.MemorySink{})
	}
	return net
}

// The tentpole acceptance scenario: a 2% uniform-loss WAN path with FEC
// K=8 completes bit-exact, and at least 80% of the gaps the receiver
// detects are repaired locally from parity — never reaching the NAK
// path, let alone the sender.
func TestFecRepairsMostLossesLocally(t *testing.T) {
	const size = 2 << 20
	g := Group{Name: "fec-wan", Delay: 20 * sim.Millisecond, Loss: 0.02}
	net := buildFecTransfer(4, Rate10Mbps, 1, g, size, 256<<10, 8, nil)
	res := net.Run(600 * sim.Second)
	if !res.Completed {
		t.Fatal("FEC transfer did not complete under 2% loss")
	}
	if res.NICDrops+res.RouterDrops == 0 {
		t.Fatal("loss model produced no drops; test is vacuous")
	}
	r := net.Receivers()[0]
	if r.Received != size || r.BadBytes != 0 {
		t.Fatalf("receiver delivered %d bytes (%d bad), want %d bit-exact", r.Received, r.BadBytes, size)
	}
	st := r.M.Stats()
	ss := net.Sender().M.Stats()
	if ss.FecParitySent == 0 {
		t.Fatal("sender emitted no parity packets")
	}
	if st.FecRecovered == 0 {
		t.Fatal("receiver recovered nothing from parity despite drops")
	}
	// Local-repair share: every detected gap either closes via parity
	// (FecRecovered counts rebuilds) or falls back to a first NAK
	// (FecFallbackNaks counts gaps that outlived the defer window).
	if st.FecRecovered < 4*st.FecFallbackNaks {
		t.Errorf("local repair share too low: %d recovered vs %d fallback NAKs (want >= 80%%)",
			st.FecRecovered, st.FecFallbackNaks)
	}
	// Singly-lost groups must never reach the sender; only multi-loss
	// groups (rare at 2%) may cost a retransmission.
	if ss.Retransmissions > st.FecFallbackNaks {
		t.Errorf("sender retransmitted %d times for %d fallback NAKs; parity path leaked work",
			ss.Retransmissions, st.FecFallbackNaks)
	}
	if ss.NakErrsSent != 0 {
		t.Errorf("H-RMC release invariant violated: %d NAK_ERRs", ss.NakErrsSent)
	}
}

// Sweeping loss rates, the FEC flow should complete everywhere and send
// markedly fewer NAKs than the NAK-only baseline at the same seed —
// that is the whole point of spending bandwidth on parity.
func TestFecLossSweepCutsNaks(t *testing.T) {
	for _, loss := range []float64{0.005, 0.01, 0.02, 0.05} {
		g := Group{Name: "sweep", Delay: 20 * sim.Millisecond, Loss: loss}
		base := buildTransfer(13, Rate10Mbps, 1, g, 256<<10, 128<<10, sender.HRMC)
		bres := base.Run(600 * sim.Second)
		fec := buildFecTransfer(13, Rate10Mbps, 1, g, 256<<10, 128<<10, 8, nil)
		fres := fec.Run(600 * sim.Second)
		if !bres.Completed || !fres.Completed {
			t.Fatalf("loss=%.3f: baseline completed=%v fec completed=%v", loss, bres.Completed, fres.Completed)
		}
		br := base.Receivers()[0]
		fr := fec.Receivers()[0]
		if fr.Received != 256<<10 || fr.BadBytes != 0 {
			t.Fatalf("loss=%.3f: FEC receiver %d bytes, %d bad", loss, fr.Received, fr.BadBytes)
		}
		bn := br.M.Stats().NaksSent
		fn := fr.M.Stats().NaksSent
		t.Logf("loss=%.3f: baseline NAKs=%d fec NAKs=%d (recovered=%d, parity sent=%d)",
			loss, bn, fn, fr.M.Stats().FecRecovered, fec.Sender().M.Stats().FecParitySent)
		if fn > bn {
			t.Errorf("loss=%.3f: FEC sent more NAKs (%d) than baseline (%d)", loss, fn, bn)
		}
		if loss >= 0.02 && bn > 0 && fn >= bn {
			t.Errorf("loss=%.3f: FEC did not cut NAKs (%d vs %d)", loss, fn, bn)
		}
	}
}

// gapLatency sums gap-filled trace events: each carries the time from
// gap detection to repair (parity rebuild or retransmission arrival).
type gapLatency struct {
	total sim.Time
	n     int64
}

func (s *gapLatency) Emit(e trace.Event) {
	if e.Kind == trace.GapFilled {
		s.total += sim.Time(e.Value)
		s.n++
	}
}

// The FEC-versus-NAK recovery crossover (FEBER's argument, PAPERS.md):
// at 1% loss on a 20 ms WAN path a parity rebuild costs the rest of the
// group's serialization while a NAK costs an RTT plus timer grain, so
// mean gap-recovery latency must be at least 2x lower with K=8 parity;
// at 5% double-loss groups fall back to NAKs and erode the win, so
// parity must merely not be slower. Fixed seeds: the ratios are exact.
func TestFecCrossoverRecoveryLatency(t *testing.T) {
	meanMs := func(loss float64, fecK int) float64 {
		var sink gapLatency
		g := Group{Name: "crossover", Delay: 20 * sim.Millisecond, Loss: loss}
		for seed := uint64(17); seed < 20; seed++ {
			net := buildFecTransfer(seed, Rate10Mbps, 1, g, 1<<20, 256<<10, fecK, &sink)
			if res := net.Run(600 * sim.Second); !res.Completed {
				t.Fatalf("loss=%.2f fec=%d seed=%d: transfer did not complete", loss, fecK, seed)
			}
		}
		if sink.n == 0 {
			t.Fatalf("loss=%.2f fec=%d: no gaps filled; test is vacuous", loss, fecK)
		}
		return float64(sink.total) / float64(sink.n) / float64(sim.Millisecond)
	}
	for _, c := range []struct{ loss, want float64 }{{0.01, 2}, {0.05, 1}} {
		nak, fec := meanMs(c.loss, 0), meanMs(c.loss, 8)
		t.Logf("loss=%.2f: NAK %.1f ms, FEC %.1f ms, ratio %.2fx (want >= %.0fx)", c.loss, nak, fec, nak/fec, c.want)
		if nak < c.want*fec {
			t.Errorf("loss=%.2f: FEC recovery only %.2fx faster than NAK, want >= %.0fx", c.loss, nak/fec, c.want)
		}
	}
}

// FEC composes with the repair hierarchy: leaves recover locally from
// parity (the sender's multicast, parity included, reaches them
// unmodified through the tree) and the run completes bit-exact at
// every node with less feedback than the same tree without parity.
func TestFecHierarchyCompletes(t *testing.T) {
	run := func(fecK int) (*Hierarchy, Result) {
		hc := HierarchyConfig{
			Heads:         2,
			LeavesPerHead: 3,
			Size:          256 << 10,
			Buf:           256 << 10,
			Seed:          5,
			Delay:         10 * sim.Millisecond,
			LeafDelay:     2 * sim.Millisecond,
			HeadLoss:      0.01,
			SubtreeLoss:   0.005,
			LeafLoss:      0.02,
			FecK:          fecK,
		}
		// Only heads join the sender's membership table, so no
		// ExpectedReceivers gate — mirror hierarchyTransfer's shape.
		rcfg := rate.DefaultConfig()
		rcfg.MaxRate = Rate100Mbps
		scfg := sender.Config{
			SndBuf:       256 << 10,
			Mode:         sender.HRMC,
			Rate:         rcfg,
			FECGroupSize: fecK,
		}
		h := NewHierarchy(hc, scfg)
		res := h.Run(600 * sim.Second)
		if !res.Completed {
			for i, nd := range h.Nodes() {
				st := nd.M.Stats()
				t.Logf("node %d head=%v finished=%v received=%d recovered=%d fallback=%d naks=%d headnaksrecv=%d",
					i, nd.IsHead(), nd.Finished, nd.Received, st.FecRecovered, st.FecFallbackNaks, st.NaksSent, st.HeadNaksReceived)
			}
			t.Fatalf("hierarchy run (fecK=%d) did not complete", fecK)
		}
		return h, res
	}
	h, _ := run(8)
	var recovered int64
	for i, nd := range h.Nodes() {
		if nd.Received != 256<<10 || nd.BadBytes != 0 {
			t.Errorf("node %d: %d bytes, %d bad", i, nd.Received, nd.BadBytes)
		}
		recovered += nd.M.Stats().FecRecovered
	}
	if recovered == 0 {
		t.Error("no node recovered anything from parity despite lossy links")
	}
	// Against the same tree without parity, local recovery should cut
	// the repair-plane traffic the heads field from their leaves.
	// (Raw SenderFeedback is dominated by periodic updates, whose count
	// wobbles with completion time — compare NAK traffic instead.)
	headNaks := func(h *Hierarchy) (n int64) {
		for _, nd := range h.Nodes() {
			n += nd.M.Stats().HeadNaksReceived
		}
		return n
	}
	base, _ := run(0)
	fn, bn := headNaks(h), headNaks(base)
	t.Logf("head NAKs: fec=%d baseline=%d (recovered=%d; feedback fec=%d baseline=%d)",
		fn, bn, recovered, h.SenderFeedback, base.SenderFeedback)
	if bn == 0 {
		t.Error("baseline tree saw no HEAD_NAKs; comparison is vacuous")
	}
	if fn > bn {
		t.Errorf("FEC tree generated more HEAD_NAKs (%d) than baseline (%d)", fn, bn)
	}
}
