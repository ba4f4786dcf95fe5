package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sender"
	"repro/internal/sim"
)

// quick returns smoke-test options: one seed, shrunken sweeps.
func quick() Options { return Options{Seeds: 1, Quick: true} }

// run regenerates a registered experiment with quick options.
func run(t *testing.T, name string) []*Table {
	t.Helper()
	r, ok := Find(name)
	if !ok {
		t.Fatalf("experiment %s not registered", name)
	}
	return r.Run(quick())
}

func findTable(t *testing.T, tables []*Table, id string) *Table {
	t.Helper()
	for _, tb := range tables {
		if tb.ID == id {
			return tb
		}
	}
	t.Fatalf("table %s not produced", id)
	return nil
}

func findSeries(t *testing.T, tb *Table, label string) Series {
	t.Helper()
	for _, s := range tb.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s: series %q not found", tb.ID, label)
	return Series{}
}

func noInvariantNotes(t *testing.T, tables []*Table) {
	t.Helper()
	for _, tb := range tables {
		for _, n := range tb.Notes {
			if strings.Contains(n, "did not complete") || strings.Contains(n, "corrupted") || strings.Contains(n, "invariant") {
				t.Errorf("%s: %s", tb.ID, n)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"ext-earlyprobe", "ext-mcastprobe", "ext-fec", "ext-localrec", "ext-scaling"}
	rs := Registry()
	if len(rs) != len(want) {
		t.Fatalf("registry has %d runners, want %d", len(rs), len(want))
	}
	for i, name := range want {
		if rs[i].Name != name {
			t.Errorf("registry[%d] = %s, want %s", i, rs[i].Name, name)
		}
		if _, ok := Find(name); !ok {
			t.Errorf("Find(%s) failed", name)
		}
	}
	if _, ok := Find("fig99"); ok {
		t.Error("Find invented a runner")
	}
}

func TestFig3Shape(t *testing.T) {
	tables := run(t, "fig3")
	noInvariantNotes(t, tables)
	a := findTable(t, tables, "fig3a")
	b := findTable(t, tables, "fig3b")
	// Headline contrast: with updates, the sender has complete
	// information far more often in the low-loss LAN environment.
	lanA := findSeries(t, a, "LAN .005%")
	lanB := findSeries(t, b, "LAN .005%")
	last := len(lanA.Y) - 1
	if lanB.Y[last] <= lanA.Y[last] {
		t.Errorf("LAN: H-RMC %.1f%% <= RMC %.1f%% at the largest buffer", lanB.Y[last], lanA.Y[last])
	}
	if lanB.Y[last] < 60 {
		t.Errorf("H-RMC LAN release info %.1f%%, expected high", lanB.Y[last])
	}
	// In the WAN, NAKs alone give RMC much better information than in
	// the LAN (the paper's point about loss-rate dependence).
	wanA := findSeries(t, a, "WAN 2%")
	if wanA.Y[last] <= lanA.Y[last] {
		t.Errorf("RMC: WAN info %.1f%% not above LAN %.1f%%", wanA.Y[last], lanA.Y[last])
	}
}

func TestFig10Shape(t *testing.T) {
	tables := run(t, "fig10")
	noInvariantNotes(t, tables)
	a := findTable(t, tables, "fig10a")
	// Throughput grows with buffer size and flattens; with the largest
	// buffer all receiver counts perform comparably.
	for _, s := range a.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last <= first {
			t.Errorf("fig10a %s: throughput %.2f → %.2f did not grow with buffer", s.Label, first, last)
		}
		if last > 10 {
			t.Errorf("fig10a %s: %.2f Mbps exceeds the line rate", s.Label, last)
		}
	}
	one := findSeries(t, a, "1 receiver(s)").Y
	three := findSeries(t, a, "3 receiver(s)").Y
	l := len(one) - 1
	if diff := one[l] - three[l]; diff > 2.5 || diff < -2.5 {
		t.Errorf("fig10a: receiver count changed large-buffer throughput by %.2f Mbps", diff)
	}
}

func TestFig11Shape(t *testing.T) {
	tables := run(t, "fig11")
	noInvariantNotes(t, tables)
	// Disk tests produce rate requests (memory tests produce none);
	// NAKs stay near zero on the clean LAN.
	total := 0.0
	for _, id := range []string{"fig11a", "fig11c"} {
		rr := findTable(t, tables, id)
		for _, s := range rr.Series {
			for _, y := range s.Y {
				total += y
			}
		}
	}
	if total == 0 {
		t.Error("fig11: disk tests produced no rate requests at all")
	}
	naks := findTable(t, tables, "fig11b")
	for _, s := range naks.Series {
		for i, y := range s.Y {
			if y > 50 {
				t.Errorf("fig11b %s at %dK: %.0f NAKs on a near-lossless LAN", s.Label, naks.X[i], y)
			}
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tables := run(t, "fig12")
	noInvariantNotes(t, tables)
	a := findTable(t, tables, "fig12a")
	b := findTable(t, tables, "fig12b")
	sa := findSeries(t, a, "1 receiver(s)").Y
	sb := findSeries(t, b, "1 receiver(s)").Y
	l := len(sa) - 1
	if sa[l] <= 10 {
		t.Errorf("fig12a large-buffer throughput %.1f Mbps does not exploit the 100 Mbps line", sa[l])
	}
	// Larger transfers amortize slow start: 40 MB ≥ 10 MB throughput.
	if sb[l] < sa[l] {
		t.Errorf("fig12: 40 MB throughput %.1f below 10 MB %.1f", sb[l], sa[l])
	}
}

func TestFig13Shape(t *testing.T) {
	tables := run(t, "fig13")
	noInvariantNotes(t, tables)
	a := findTable(t, tables, "fig13b")
	for _, s := range a.Series {
		if s.Y[0] != 0 {
			t.Errorf("fig13b %s: %.0f NAKs at the smallest buffer, want 0", s.Label, s.Y[0])
		}
	}
	// At least one series shows NIC-drop NAKs at the largest buffer.
	anyNaks := false
	for _, s := range a.Series {
		if s.Y[len(s.Y)-1] > 0 {
			anyNaks = true
		}
	}
	if !anyNaks {
		t.Error("fig13b: no NAKs at 2048K buffers; NIC burst drops not reproduced")
	}
}

func TestFig14Definitions(t *testing.T) {
	tables := run(t, "fig14")
	groups := findTable(t, tables, "fig14a")
	if len(groups.X) != 3 {
		t.Error("fig14a must define three characteristic groups")
	}
	tests := findTable(t, tables, "fig14b")
	if len(tests.X) != 5 {
		t.Error("fig14b must define five test cases")
	}
	// Cross-check testCase against the declared percentages.
	for n := 1; n <= 5; n++ {
		gs := testCase(n, 10)
		if len(gs) != 10 {
			t.Errorf("test %d has %d receivers", n, len(gs))
		}
	}
	c4 := 0
	for _, g := range testCase(4, 10) {
		if g.Name == netsim.GroupC.Name {
			c4++
		}
	}
	if c4 != 2 {
		t.Errorf("Test 4 has %d receivers in C, want 2 of 10", c4)
	}
	c5 := 0
	for _, g := range testCase(5, 10) {
		if g.Name == netsim.GroupC.Name {
			c5++
		}
	}
	if c5 != 8 {
		t.Errorf("Test 5 has %d receivers in C, want 8 of 10", c5)
	}
}

func TestFig15Shape(t *testing.T) {
	tables := run(t, "fig15")
	noInvariantNotes(t, tables)
	tp := findTable(t, tables, "fig15a")
	l := len(tp.X) - 1
	t1 := findSeries(t, tp, "Test 1").Y[l]
	t2 := findSeries(t, tp, "Test 2").Y[l]
	t3 := findSeries(t, tp, "Test 3").Y[l]
	t4 := findSeries(t, tp, "Test 4").Y[l]
	t5 := findSeries(t, tp, "Test 5").Y[l]
	if !(t1 > t2 && t2 > t3) {
		t.Errorf("fig15a ordering broken: T1=%.2f T2=%.2f T3=%.2f", t1, t2, t3)
	}
	// Tests 4 and 5 sit near the WAN result: the protocol adapts to the
	// least capable receiver.
	if t4 > (t2+t3)/2+1 || t5 > (t2+t3)/2+1 {
		t.Errorf("mixed tests too fast: T4=%.2f T5=%.2f vs T2=%.2f T3=%.2f", t4, t5, t2, t3)
	}
	// Rate requests: more loss ⇒ more requests at small buffers.
	rr := findTable(t, tables, "fig15b")
	r1 := findSeries(t, rr, "Test 1").Y[0]
	r3 := findSeries(t, rr, "Test 3").Y[0]
	if r3 <= r1 {
		t.Errorf("fig15b: WAN rate requests %.0f not above LAN %.0f at the smallest buffer", r3, r1)
	}
	// 100-receiver panel exists and completed.
	findTable(t, tables, "fig15c")
}

func TestFig16Shape(t *testing.T) {
	tables := run(t, "fig16")
	noInvariantNotes(t, tables)
	tp := findTable(t, tables, "fig16a")
	l := len(tp.X) - 1
	t1 := findSeries(t, tp, "Test 1").Y[l]
	t3 := findSeries(t, tp, "Test 3").Y[l]
	if t1 <= t3 {
		t.Errorf("fig16a: T1=%.2f not above T3=%.2f", t1, t3)
	}
	c := findTable(t, tables, "fig16c")
	if c.Series[0].Y[0] < 10 {
		t.Errorf("fig16c: %0.1f Mbps with many receivers and large buffers is too low", c.Series[0].Y[0])
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		ID: "figX", Title: "demo", XLabel: "buffer KB", YLabel: "Mbps",
		X:      []int{64, 128},
		Series: []Series{{Label: "a", Y: []float64{1, 2}}, {Label: "b", Y: []float64{3}}},
	}
	tb.AddNote("note %d", 7)
	out := tb.Format()
	for _, want := range []string{"figX", "demo", "64", "128", "1.00", "3.00", "-", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAvgAverages pins the averaging: run i takes seed s + i·1000003,
// every float64 field and Duration is the mean of the runs summed in seed
// order, and Completed is their AND. The limit cuts the middle seed
// short, so the AND has a false to carry.
func TestRunAvgAverages(t *testing.T) {
	sc := Scenario{
		Seed: 5, LineRate: netsim.Rate10Mbps, Buffer: 128 * KB,
		FileSize: 256 << 10, Receivers: groupN(netsim.GroupB, 2),
		Limit: 950 * sim.Millisecond,
	}
	var runs [3]Metrics
	for i := range runs {
		s := sc
		s.Seed = sc.Seed + uint64(i)*1000003
		runs[i] = Run(s)
	}
	if runs[0].Completed == runs[1].Completed && runs[1].Completed == runs[2].Completed {
		t.Fatalf("the limit no longer splits the seeds: completed %v %v %v", runs[0].Completed, runs[1].Completed, runs[2].Completed)
	}
	avg := RunAvg(sc, 3)
	if want := runs[0].Completed && runs[1].Completed && runs[2].Completed; avg.Completed != want {
		t.Errorf("Completed = %v, want %v", avg.Completed, want)
	}
	if want := sim.Time(float64(runs[0].Duration+runs[1].Duration+runs[2].Duration) / 3); avg.Duration != want {
		t.Errorf("Duration = %v, want %v", avg.Duration, want)
	}
	got := reflect.ValueOf(avg)
	for f := 0; f < got.NumField(); f++ {
		if got.Field(f).Kind() != reflect.Float64 {
			continue
		}
		sum := 0.0
		for _, m := range runs {
			sum += reflect.ValueOf(m).Field(f).Float()
		}
		if want := sum / 3; got.Field(f).Float() != want {
			t.Errorf("%s = %v, want %v", got.Type().Field(f).Name, got.Field(f).Float(), want)
		}
	}
	if runs[0].Naks == runs[1].Naks && runs[1].Naks == runs[2].Naks {
		t.Error("the seeds drew the same losses; the mean checks nothing")
	}
}

// TestSweepNotesIncompleteRuns: a run cut off after one jiffy notes its
// sweep label on the first of the tables it fills and on no other; the
// RMC baseline may give up on a transfer, so in RMC mode the same runs
// note nothing.
func TestSweepNotesIncompleteRuns(t *testing.T) {
	names := []string{"LAN .005%", "WAN 2%"}
	for _, mode := range []sender.Mode{sender.HRMC, sender.RMC} {
		tables := sweep{
			xLabel: "buffer KB", x: []int{64, 128}, series: names, seeds: 1,
			point: func(s, b int) (Scenario, string) {
				return Scenario{
					Seed: 1, LineRate: netsim.Rate10Mbps,
					Buffer: b * KB, FileSize: MB,
					Receivers: groupN(netsim.GroupA, 2),
					Mode:      mode,
					Limit:     10 * sim.Millisecond,
				}, fmt.Sprintf("%s/%dK", names[s], b)
			},
		}.run(plot{id: "first", y: throughput}, plot{id: "second", suffix: " rr", y: rateRequests})
		if got := findSeries(t, tables[1], "WAN 2% rr").Y; len(got) != 2 {
			t.Errorf("second table's series has %d points, want 2", len(got))
		}
		if len(tables[1].Notes) != 0 {
			t.Errorf("mode %v: second table carries notes %q", mode, tables[1].Notes)
		}
		var want []string
		if mode == sender.HRMC {
			for _, n := range names {
				for _, b := range []int{64, 128} {
					want = append(want, fmt.Sprintf("%s/%dK: transfer did not complete within the limit", n, b))
				}
			}
		}
		if !slices.Equal(tables[0].Notes, want) {
			t.Errorf("mode %v: first table notes %q, want %q", mode, tables[0].Notes, want)
		}
	}
}

func TestTableFormatCSV(t *testing.T) {
	tb := &Table{
		ID: "figY", Title: "demo", XLabel: "buffer KB", YLabel: "Mbps",
		X:      []int{64, 128},
		Series: []Series{{Label: "a,b", Y: []float64{1.5, 2}}, {Label: "c", Y: []float64{3}}},
	}
	tb.AddNote("careful")
	out := tb.FormatCSV()
	for _, want := range []string{"# figY", "buffer KB,\"a,b\",c", "64,1.5,3", "128,2,", "# note: careful"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV output missing %q:\n%s", want, out)
		}
	}
}
