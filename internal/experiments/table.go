package experiments

import (
	"fmt"
	"strings"
)

// Series is one line of a figure: a label and a Y value per X point.
type Series struct {
	Label string
	Y     []float64
}

// Table is one figure panel rendered as the paper's rows: X is the swept
// parameter (kernel buffer size in KB throughout the paper's figures).
type Table struct {
	ID     string // e.g. "fig10a"
	Title  string
	XLabel string
	YLabel string
	X      []int
	Series []Series
	// Notes carries caveats (incomplete runs, invariant checks).
	Notes []string
}

// AddNote appends a caveat to the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text, one row per X value and one
// column per series.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "  %s vs %s\n", t.YLabel, t.XLabel)
	// Header.
	fmt.Fprintf(&b, "  %-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteByte('\n')
	for i, x := range t.X {
		fmt.Fprintf(&b, "  %-12d", x)
		for _, s := range t.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %14.2f", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// FormatCSV renders the table as CSV: a header row of series labels,
// one row per X value. The title and notes become comment lines.
func (t *Table) FormatCSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s (%s vs %s)\n", t.ID, t.Title, t.YLabel, t.XLabel)
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	for i, x := range t.X {
		fmt.Fprintf(&b, "%d", x)
		for _, s := range t.Series {
			b.WriteByte(',')
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%g", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# note: %s\n", n)
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Runner regenerates one paper figure and returns its panels.
type Runner struct {
	Name string
	// Desc says what the paper's figure shows.
	Desc string
	Run  func(opt Options) []*Table
}

// Options tunes how much work a regeneration does.
type Options struct {
	// Seeds is how many seeded runs are averaged per point (the paper
	// averages five tests).
	Seeds int
	// Quick shrinks file sizes and sweeps for smoke tests and benches.
	Quick bool
}

// Registry returns all figure runners in paper order.
func Registry() []Runner {
	return []Runner{
		{Name: "fig3", Desc: "Percentage of releases with complete receiver information, RMC vs H-RMC (simulated, 10 receivers)", Run: fig3},
		{Name: "fig10", Desc: "Throughput on a 10 Mbps network: mem/disk × 10/40 MB × 1-3 receivers (experimental testbed, simulated here)", Run: testbedFigure("fig10")},
		{Name: "fig11", Desc: "Feedback activity (rate requests, NAKs) for the 10 Mbps disk tests", Run: testbedFigure("fig11")},
		{Name: "fig12", Desc: "Throughput on a 100 Mbps network, memory-to-memory", Run: testbedFigure("fig12")},
		{Name: "fig13", Desc: "NAK activity on a 100 Mbps network: NIC burst drops appear beyond 1024K buffers", Run: testbedFigure("fig13")},
		{Name: "fig14", Desc: "Characteristic groups and test cases (definitions)", Run: fig14},
		{Name: "fig15", Desc: "Simulated 10 Mbps: throughput and rate requests for Tests 1-5; 100-receiver scaling", Run: fig15},
		{Name: "fig16", Desc: "Simulated 100 Mbps: throughput and rate requests; 100-receiver headline", Run: fig16},
		{Name: "ext-earlyprobe", Desc: "Ablation: early probes vs stop-and-wait releases (Section 7, item 1)", Run: extEarlyProbe},
		{Name: "ext-mcastprobe", Desc: "Ablation: multicast vs unicast probes with many lagging receivers (Section 7, item 2)", Run: extMulticastProbe},
		{Name: "ext-fec", Desc: "Ablation: XOR-parity forward error correction vs NAK recovery (Section 7, item 4)", Run: extFec},
		{Name: "ext-localrec", Desc: "Ablation: local recovery (multicast NAKs + peer repairs) vs centralized recovery (Section 7, item 3)", Run: extLocalRecovery},
		{Name: "ext-scaling", Desc: "Extension study: receiver-count scaling to 200 (Section 5.2 discussion)", Run: extScaling},
	}
}

// Find returns the runner with the given name.
func Find(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}
