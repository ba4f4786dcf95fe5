package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// rangeLimit is the widest (max − min)/median the issue behind this
// benchmark wanted a set of runs of one commit to show; compare counts
// the rows beyond it.
const rangeLimit = 0.10

// cmdCompare reads two sets of runs and prints, per workload and
// end-to-end metric, each set's median, quartiles, spread (q3 − q1 over
// the median) and (max − min)/median. It fails when the second median is
// worse than the first by more than the metric's bound, or when a set's
// spread exceeds the bound: two sets of runs of the same code have to
// agree within the bounds the benchmark holds other changes to. The
// workloads that are not gated are printed and marked, never counted.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		usage()
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	disagree, noisy, wide, sets := 0, 0, 0, 0
	for _, w := range workloads {
		note, gated := "", 1
		if w.ungated {
			note, gated = "  not gated", 0
		}
		fmt.Printf("%s  (A: %d runs, B: %d runs)%s\n", w.Name, len(a[w.Name]), len(b[w.Name]), note)
		fmt.Printf("  %-20s %10s %23s %7s %7s %10s %23s %7s %7s %8s %6s\n",
			"metric", "A median", "A q1..q3", "spread", "range", "B median", "B q1..q3", "spread", "range", "B vs A", "bound")
		for _, d := range endToEnd {
			sa, sb := summarize(a[w.Name], d.Name), summarize(b[w.Name], d.Name)
			if sa.n == 0 || sb.n == 0 {
				return fmt.Errorf("%s: %s is missing from one of the sets", w.Name, d.Name)
			}
			worse := ratio(sb.median-sa.median, sa.median)
			if d.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.Bound {
				mark += "  DISAGREE"
				disagree += gated
			}
			if sa.spread > d.Bound || sb.spread > d.Bound {
				mark += "  NOISY"
				noisy += gated
			}
			for _, set := range []summary{sa, sb} {
				if set.span > rangeLimit {
					wide += gated
				}
			}
			sets += 2 * gated
			fmt.Printf("  %-20s %10.4f %11.4f..%-10.4f %6.1f%% %6.1f%% %10.4f %11.4f..%-10.4f %6.1f%% %6.1f%% %+7.1f%% %5.0f%%%s\n",
				d.Name, sa.median, sa.q1, sa.q3, 100*sa.spread, 100*sa.span,
				sb.median, sb.q1, sb.q3, 100*sb.spread, 100*sb.span,
				100*ratio(sb.median-sa.median, sa.median), 100*d.Bound, mark)
		}
	}
	fmt.Printf("gated workloads: %d metric x workload pairs disagree beyond their bound; %d have a spread beyond it; %d of %d sets range over more than %.0f%%\n",
		disagree, noisy, wide, sets, 100*rangeLimit)
	if disagree > 0 || noisy > 0 {
		return errors.New("the two sets of runs do not agree within the bounds")
	}
	return nil
}

// readResults loads a results file, grouped by workload; runs that
// failed operations are refused, their timings mean nothing.
func readResults(path string) (map[string][]*runOutput, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string][]*runOutput)
	for _, r := range f.Runs {
		if !r.Correct || r.Failed > 0 {
			return nil, fmt.Errorf("%s: %s seed %d failed %d of %d operations", path, r.Workload, r.Seed, r.Failed, r.Attempted)
		}
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by, nil
}

type summary struct {
	n              int
	median, q1, q3 float64
	spread         float64 // (q3 − q1)/median
	span           float64 // (max − min)/median
}

func summarize(runs []*runOutput, metric string) summary {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	if len(v) < 2 {
		return summary{}
	}
	s := sortedCopy(v)
	q1, med, q3 := quartile(s, 1), quartile(s, 2), quartile(s, 3)
	return summary{
		n: len(s), median: med, q1: q1, q3: q3,
		spread: ratio(q3-q1, med), span: ratio(s[len(s)-1]-s[0], med),
	}
}

// quartile returns the i-th quartile of sorted as Python's
// statistics.quantiles(v, n=4) computes it, which is how a driver of
// this benchmark measures spread.
func quartile(sorted []float64, i int) float64 {
	m := len(sorted)
	j := min(max(i*(m+1)/4, 1), m-1)
	delta := float64(i*(m+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}
