package experiments

import "testing"

func TestExtFecCutsNaks(t *testing.T) {
	tables := run(t, "ext-fec")
	noInvariantNotes(t, tables)
	naks := findTable(t, tables, "ext-fec")
	s := naks.Series[0]
	base := s.Y[0] // K=0
	if base == 0 {
		t.Fatal("baseline produced no NAKs; ablation vacuous")
	}
	cut := false
	for _, y := range s.Y[1:] {
		if y < base/2 {
			cut = true
		}
	}
	if !cut {
		t.Errorf("no FEC setting halved the NAK count: %v", s.Y)
	}
	// Throughput pays a bounded price for parity overhead and quieter
	// feedback, but must not collapse.
	tp := findTable(t, tables, "ext-fec-tp").Series[0]
	for i, y := range tp.Y[1:] {
		if y < tp.Y[0]*0.5 {
			t.Errorf("K=%d throughput collapsed: %.2f vs baseline %.2f", naks.X[i+1], y, tp.Y[0])
		}
	}
}

func TestExtScalingShape(t *testing.T) {
	tables := run(t, "ext-scaling")
	noInvariantNotes(t, tables)
	tp := findTable(t, tables, "ext-scaling")
	s := tp.Series[0]
	first, last := s.Y[0], s.Y[len(s.Y)-1]
	if last > first {
		t.Errorf("throughput grew with receiver count: %.2f → %.2f", first, last)
	}
	if last < first*0.5 {
		t.Errorf("scaling collapse too steep at these counts: %.2f → %.2f", first, last)
	}
	fb := findTable(t, tables, "ext-scaling-fb")
	f := fb.Series[0]
	if f.Y[len(f.Y)-1] <= f.Y[0] {
		t.Error("feedback volume did not grow with receiver count")
	}
}

func TestExtEarlyProbeHelpsSmallBuffers(t *testing.T) {
	tables := run(t, "ext-earlyprobe")
	noInvariantNotes(t, tables)
	tb := findTable(t, tables, "ext-earlyprobe")
	base := findSeries(t, tb, "baseline")
	early := findSeries(t, tb, "early 4 RTTs")
	// At the smallest buffer (deepest stop-and-wait), early probes must
	// not hurt and should help.
	if early.Y[0] < base.Y[0] {
		t.Errorf("early probes reduced small-buffer throughput: %.3f vs %.3f", early.Y[0], base.Y[0])
	}
	improved := false
	for i := range base.Y {
		if early.Y[i] > base.Y[i]*1.02 {
			improved = true
		}
	}
	if !improved {
		t.Error("early probes improved nothing anywhere in the sweep")
	}
}

func TestExtMulticastProbeCutsProbeTraffic(t *testing.T) {
	tables := run(t, "ext-mcastprobe")
	noInvariantNotes(t, tables)
	probes := findTable(t, tables, "ext-mcastprobe")
	uni := findSeries(t, probes, "unicast probes")
	multi := findSeries(t, probes, "multicast ≥4")
	last := len(probes.X) - 1
	if uni.Y[last] == 0 {
		t.Fatal("baseline sent no probes; ablation is vacuous")
	}
	if multi.Y[last] >= uni.Y[last]/2 {
		t.Errorf("multicast probes did not cut probe traffic: %.0f vs %.0f", multi.Y[last], uni.Y[last])
	}
	// Throughput stays in the same ballpark.
	tp := findTable(t, tables, "ext-mcastprobe-tp")
	u := findSeries(t, tp, "unicast probes").Y[last]
	m := findSeries(t, tp, "multicast ≥4").Y[last]
	if m < u*0.7 {
		t.Errorf("multicast probes cost too much throughput: %.2f vs %.2f", m, u)
	}
}

func TestExtLocalRecoveryOffloadsSender(t *testing.T) {
	tables := run(t, "ext-localrec")
	noInvariantNotes(t, tables)
	retr := findTable(t, tables, "ext-localrec")
	base := findSeries(t, retr, "centralized")
	lr := findSeries(t, retr, "local recovery")
	last := len(retr.X) - 1
	if base.Y[last] == 0 {
		t.Fatal("baseline produced no retransmissions; ablation vacuous")
	}
	if lr.Y[last] >= base.Y[last] {
		t.Errorf("local recovery did not reduce sender retransmissions: %.0f vs %.0f", lr.Y[last], base.Y[last])
	}
	tp := findTable(t, tables, "ext-localrec-tp")
	b := findSeries(t, tp, "centralized Mbps").Y[last]
	l := findSeries(t, tp, "local recovery Mbps").Y[last]
	if l < b*0.5 {
		t.Errorf("local recovery collapsed throughput: %.2f vs %.2f", l, b)
	}
}
