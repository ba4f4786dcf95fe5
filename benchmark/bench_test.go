package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload with a one-second window,
// untraced and traced, and checks what a full run relies on: bit-exact
// delivery, no failed operation, and every named metric present and
// finite. It asserts nothing about speed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second, twice")
	}
	ledger := runLedger(20 * time.Millisecond)
	for _, d := range ledgerMetrics {
		if v, ok := ledger[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("ledger: %s = %v (present %v)", d.Name, v, ok)
		}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{Seed: 5, Window: time.Second, Warmup: 300 * time.Millisecond, Salt: uint64(os.Getpid())}
			untraced, err := runWorkload(w, cfg)
			if errors.Is(err, errUnavailable) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, w, untraced, endToEnd, endToEndValues(untraced))

			cfg.Tracer = newTracer()
			traced, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs := cfg.Tracer.join()
			values := tracedValues(w, traced, untraced, cfg.Tracer, recs, ledger)
			checkRun(t, w, traced, perLayer(), values)
			if len(recs) != len(traced.Delivery) {
				t.Errorf("%d records have spans, %d were delivered in the window", len(recs), len(traced.Delivery))
			}
			// The spans cut each record's delivery time, so their means
			// and the unexplained remainder add up to its mean.
			sm := meansOf(recs)
			if sum := sm.queue + sm.wire + sm.reassembly + sm.unexplained; math.Abs(sum-sm.delivery) > 1e-6*sm.delivery {
				t.Errorf("span means sum to %.6f ms, delivery mean is %.6f ms", sum, sm.delivery)
			}
			if sm.unexplained > 0.5*sm.delivery {
				t.Errorf("the taps cut too few records: %.3f of %.3f ms unexplained", sm.unexplained, sm.delivery)
			}
			if _, err := writeTraceFile(t.TempDir(), w, cfg.Seed, recs, values); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func checkRun(t *testing.T, w workload, m *measurement, defs []metricDef, values map[string]float64) {
	t.Helper()
	if m.Ops == 0 || m.Failed != 0 {
		t.Errorf("ops %d, failed_ops %d: %v", m.Ops, m.Failed, m.Errors)
	}
	// A one-second window completes a MiB on the fast streams only, so
	// completion times are required of the churn workload alone.
	if m.Bytes == 0 || len(m.Delivery) == 0 || w.churn && len(m.Completion) == 0 {
		t.Errorf("window delivered %d bytes, %d records, %d completions", m.Bytes, len(m.Delivery), len(m.Completion))
	}
	if w.lossPPM > 0 && m.Dropped == 0 {
		t.Error("the injector dropped nothing")
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v)", d.Name, v, ok)
		}
	}
	for _, d := range endToEnd {
		if v, ok := values[d.Name]; ok && v <= 0 && (w.churn || !strings.HasPrefix(d.Name, "completion_")) {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
		}
	}
}

// TestCatalogueMatchesManifest keeps BENCHMARK.json and the catalogue
// in metrics.go from drifting apart.
func TestCatalogueMatchesManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark manifest`")
	}
}

// TestQuartileMatchesPython pins compare's quartiles to
// statistics.quantiles(v, n=4), the spread a driver computes.
func TestQuartileMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := quartile(v, i+1); got != want {
			t.Errorf("quartile %d of 1..10 = %v, want %v", i+1, got, want)
		}
	}
	// [3, 5, 9, 11, 14]: quantiles give [4.0, 9.0, 12.5].
	for i, want := range []float64{4, 9, 12.5} {
		if got := quartile([]float64{3, 5, 9, 11, 14}, i+1); got != want {
			t.Errorf("quartile %d of five values = %v, want %v", i+1, got, want)
		}
	}
}
