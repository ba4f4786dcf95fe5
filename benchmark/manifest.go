package main

import "encoding/json"

// manifest renders BENCHMARK.json from the catalogue in metrics.go and
// the workload table, so the file at the repository's root is written
// by `go run ./benchmark manifest > BENCHMARK.json` and never by hand.
func manifest() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []bounded       `json:"end_to_end"`
		PerLayer   []unbounded     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if w.ungated {
			continue
		}
		m.Workloads = append(m.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	return append(b, '\n')
}
