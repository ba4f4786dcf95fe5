package experiments

import "repro/internal/sender"

// sweep is the one experiment of the evaluation: for every series
// (outer) and every X point (inner), average a scenario over seeded runs
// and plot what each of its tables asks of the result.
type sweep struct {
	xLabel string
	x      []int
	series []string
	seeds  int
	// point returns the scenario of series s at x, and the label its
	// invariant notes carry.
	point func(s, x int) (Scenario, string)
}

// plot is one table a sweep fills from its runs.
type plot struct {
	id, title, yLabel string
	suffix            string // appended to every series label
	y                 func(Metrics) float64
}

// run runs the sweep and returns one table per plot, in order. Invariant
// notes go on the first table.
func (sw sweep) run(plots ...plot) []*Table {
	tables := make([]*Table, len(plots))
	for i, p := range plots {
		tables[i] = &Table{ID: p.id, Title: p.title, XLabel: sw.xLabel, YLabel: p.yLabel, X: sw.x}
	}
	for s, label := range sw.series {
		for i, p := range plots {
			tables[i].Series = append(tables[i].Series, Series{Label: label + p.suffix})
		}
		for _, x := range sw.x {
			sc, note := sw.point(s, x)
			m := RunAvg(sc, sw.seeds)
			for i, p := range plots {
				tables[i].Series[s].Y = append(tables[i].Series[s].Y, p.y(m))
			}
			checkInvariants(tables[0], note, m, sc.Mode)
		}
	}
	return tables
}

func throughput(m Metrics) float64   { return m.ThroughputMbps }
func naks(m Metrics) float64         { return m.Naks }
func rateRequests(m Metrics) float64 { return m.RateRequests + m.Urgents }

// checkInvariants appends notes when a run breaks the reproduction's
// ground rules (incomplete transfer, corrupted bytes, or an H-RMC
// NAK_ERR).
func checkInvariants(t *Table, label string, m Metrics, mode sender.Mode) {
	if m.BadBytes > 0 {
		t.AddNote("%s: %v corrupted bytes delivered", label, m.BadBytes)
	}
	if mode == sender.HRMC {
		if !m.Completed {
			t.AddNote("%s: transfer did not complete within the limit", label)
		}
		if m.NakErrs > 0 {
			t.AddNote("%s: H-RMC emitted %v NAK_ERRs (invariant violation)", label, m.NakErrs)
		}
	} else if m.NakErrs > 0 {
		// Expected for the baseline: pure NAK reliability can fail.
		t.AddNote("%s: RMC reliability gap — %v NAK_ERRs", label, m.NakErrs)
	}
}

// Standard kernel-buffer sweeps (KB), as plotted in the paper.
func bufList(opt Options, ext bool) []int {
	switch {
	case opt.Quick && ext:
		return []int{64, 512, 2048}
	case opt.Quick:
		return []int{64, 256, 1024}
	case ext:
		return []int{64, 128, 256, 512, 1024, 2048}
	}
	return []int{64, 128, 256, 512, 1024}
}

func fileSize(opt Options, mb int64) int64 {
	if opt.Quick {
		if mb >= 40 {
			return 4 * MB
		}
		return 2 * MB
	}
	return mb * MB
}
