package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sender"
	"repro/internal/sim"
)

// fig3 reproduces Figure 3: the percentage of buffer releases for which
// the sender had complete receiver information, without updates
// (original RMC, panel a) and with updates (H-RMC, panel b), for LAN,
// MAN and WAN loss environments, 10 receivers.
func fig3(opt Options) []*Table {
	envs := []netsim.Group{netsim.GroupA, netsim.GroupB, netsim.GroupC}
	names := []string{"LAN .005%", "MAN 0.5%", "WAN 2%"}
	var tables []*Table
	for _, panel := range []struct {
		id, title string
		mode      sender.Mode
	}{
		{"fig3a", "release info without updates (original RMC)", sender.RMC},
		{"fig3b", "release info with updates (H-RMC)", sender.HRMC},
	} {
		tables = append(tables, sweep{
			xLabel: "buffer KB", x: bufList(opt, false), series: names, seeds: opt.Seeds,
			point: func(s, b int) (Scenario, string) {
				return Scenario{
					Seed: 30, LineRate: netsim.Rate10Mbps,
					Buffer: b * KB, FileSize: fileSize(opt, 5),
					Receivers: groupN(envs[s], 10),
					Mode:      panel.mode,
					Limit:     400 * sim.Second,
				}, fmt.Sprintf("%s/%dK", names[s], b)
			},
		}.run(plot{id: panel.id, title: panel.title, yLabel: "% releases with complete info",
			y: func(m Metrics) float64 { return m.ReleaseInfoPct }})...)
	}
	return tables
}

// testbed lists the panels of Figures 10–13, the experimental LAN study:
// one, two and three group-A receivers over a kernel-buffer sweep, each
// count seeded seedBase+n. Figure 10 is throughput on the 10 Mbps
// testbed, Figure 11 the feedback of its disk tests, Figure 12 throughput
// at 100 Mbps and Figure 13 its NAKs.
var testbed = []struct {
	id, title string
	rate      float64
	disk      bool
	sizeMB    int64
	seedBase  uint64
	// nicQueue is the egress queue bound (0 keeps the default). Figure 13
	// uses the testbed NIC's: just under one jiffy of line rate, which the
	// full-rate bursts reached only with large buffers can overflow.
	nicQueue int
	ext      bool // sweep to 2048K
	yLabel   string
	y        func(Metrics) float64
}{
	{"fig10a", "memory-to-memory throughput, 10 MB", netsim.Rate10Mbps, false, 10, 40, 0, false, "throughput Mbps", throughput},
	{"fig10b", "memory-to-memory throughput, 40 MB", netsim.Rate10Mbps, false, 40, 40, 0, false, "throughput Mbps", throughput},
	{"fig10c", "disk-to-disk throughput, 10 MB", netsim.Rate10Mbps, true, 10, 40, 0, false, "throughput Mbps", throughput},
	{"fig10d", "disk-to-disk throughput, 40 MB", netsim.Rate10Mbps, true, 40, 40, 0, false, "throughput Mbps", throughput},
	{"fig11a", "rate requests, 10 MB, disk-to-disk", netsim.Rate10Mbps, true, 10, 40, 0, false, "count at sender", rateRequests},
	{"fig11b", "NAKs, 10 MB, disk-to-disk", netsim.Rate10Mbps, true, 10, 40, 0, false, "count at sender", naks},
	{"fig11c", "rate requests, 40 MB, disk-to-disk", netsim.Rate10Mbps, true, 40, 40, 0, false, "count at sender", rateRequests},
	{"fig11d", "NAKs, 40 MB, disk-to-disk", netsim.Rate10Mbps, true, 40, 40, 0, false, "count at sender", naks},
	{"fig12a", "memory-to-memory throughput, 10 MB", netsim.Rate100Mbps, false, 10, 50, 0, false, "throughput Mbps", throughput},
	{"fig12b", "memory-to-memory throughput, 40 MB", netsim.Rate100Mbps, false, 40, 50, 0, false, "throughput Mbps", throughput},
	{"fig13a", "NAK activity, 10 MB, memory-to-memory", netsim.Rate100Mbps, false, 10, 60, 112 << 10, true, "NAKs at sender", naks},
	{"fig13b", "NAK activity, 40 MB, memory-to-memory", netsim.Rate100Mbps, false, 40, 60, 112 << 10, true, "NAKs at sender", naks},
}

// testbedFigure runs the testbed panels of one figure, in order.
func testbedFigure(fig string) func(Options) []*Table {
	return func(opt Options) []*Table {
		var tables []*Table
		for _, p := range testbed {
			if p.id[:len(p.id)-1] != fig {
				continue
			}
			tables = append(tables, sweep{
				xLabel: "buffer KB", x: bufList(opt, p.ext), seeds: opt.Seeds,
				series: []string{"1 receiver(s)", "2 receiver(s)", "3 receiver(s)"},
				point: func(s, b int) (Scenario, string) {
					n := s + 1
					return Scenario{
						Seed: p.seedBase + uint64(n), LineRate: p.rate,
						Buffer: b * KB, FileSize: fileSize(opt, p.sizeMB),
						Receivers:     groupN(netsim.GroupA, n),
						DiskIO:        p.disk,
						NICQueueBytes: p.nicQueue,
					}, fmt.Sprintf("%dr/%dK", n, b)
				},
			}.run(plot{id: p.id, title: fmt.Sprintf("%s (%.0f Mbps)", p.title, p.rate*8/1e6), yLabel: p.yLabel, y: p.y})...)
		}
		return tables
	}
}

// Tests 1–5 of Figure 14(b).
func testCase(n int, receivers int) []netsim.Group {
	part := func(frac float64) int { return int(frac * float64(receivers)) }
	switch n {
	case 1:
		return groupN(netsim.GroupA, receivers)
	case 2:
		return groupN(netsim.GroupB, receivers)
	case 3:
		return groupN(netsim.GroupC, receivers)
	case 4:
		return mix(netsim.GroupB, receivers-part(0.2), netsim.GroupC, part(0.2))
	case 5:
		return mix(netsim.GroupB, part(0.2), netsim.GroupC, receivers-part(0.2))
	}
	panic("unknown test case")
}

// fig14 emits the characteristic-group and test-case definitions of
// Figure 14 as data tables.
func fig14(Options) []*Table {
	groups := &Table{
		ID: "fig14a", Title: "characteristic groups",
		XLabel: "delay ms", YLabel: "loss %",
		X: []int{2, 20, 100},
		Series: []Series{
			{Label: "loss %", Y: []float64{0.005, 0.5, 2}},
		},
	}
	groups.AddNote("group A = 2 ms/0.005%%, B = 20 ms/0.5%%, C = 100 ms/2%%")
	tests := &Table{
		ID: "fig14b", Title: "test cases (receiver composition)",
		XLabel: "test", YLabel: "% of receivers",
		X: []int{1, 2, 3, 4, 5},
		Series: []Series{
			{Label: "% in A", Y: []float64{100, 0, 0, 0, 0}},
			{Label: "% in B", Y: []float64{0, 100, 0, 80, 20}},
			{Label: "% in C", Y: []float64{0, 0, 100, 20, 80}},
		},
	}
	return []*Table{groups, tests}
}

// testsSweep sweeps the kernel buffer (to 2048K) over the given test
// cases of Figure 14(b), n receivers each, with a 10 MB file.
func testsSweep(opt Options, tests []int, n int, lineRate float64, seedBase uint64, seeds int) sweep {
	sw := sweep{xLabel: "buffer KB", x: bufList(opt, true), seeds: seeds}
	for _, test := range tests {
		sw.series = append(sw.series, fmt.Sprintf("Test %d", test))
	}
	sw.point = func(s, b int) (Scenario, string) {
		return Scenario{
			Seed: seedBase + uint64(tests[s]), LineRate: lineRate,
			Buffer: b * KB, FileSize: fileSize(opt, 10),
			Receivers: testCase(tests[s], n),
		}, fmt.Sprintf("test%d/%dK", tests[s], b)
	}
	return sw
}

// simStudy builds panels (a) and (b) of Figures 15 and 16 from the same
// runs: throughput and rate-reduce requests for Tests 1–5, 10 receivers.
func simStudy(opt Options, fig string, lineRate float64, seedBase uint64) []*Table {
	mbps := lineRate * 8 / 1e6
	return testsSweep(opt, []int{1, 2, 3, 4, 5}, 10, lineRate, seedBase, opt.Seeds).run(
		plot{id: fig + "a", title: fmt.Sprintf("throughput, 10 receivers (%.0f Mbps, simulated)", mbps), yLabel: "throughput Mbps", y: throughput},
		plot{id: fig + "b", title: fmt.Sprintf("rate reduce requests, 10 receivers (%.0f Mbps, simulated)", mbps), yLabel: "rate requests at sender", y: rateRequests},
	)
}

// fig15 reproduces Figure 15: the 10 Mbps simulation study — throughput
// and rate-reduce requests for Tests 1–5 with 10 receivers, plus the
// 100-receiver scaling panel.
func fig15(opt Options) []*Table {
	tables := simStudy(opt, "fig15", netsim.Rate10Mbps, 70)

	// Panel (c): 100 receivers. The paper shows throughput dipping
	// slightly versus 10 receivers and recovering with buffer size.
	// 100-receiver runs are heavy; one seed like the paper's single plot.
	nRecv, tests := 100, []int{1, 2, 3}
	if opt.Quick {
		nRecv, tests = 30, []int{1, 3}
	}
	c := testsSweep(opt, tests, nRecv, netsim.Rate10Mbps, 80, 1).run(plot{
		id: "fig15c", title: fmt.Sprintf("throughput, %d receivers (10 Mbps, simulated)", nRecv),
		yLabel: "throughput Mbps", y: throughput,
	})
	return append(tables, c...)
}

// fig16 reproduces Figure 16: the 100 Mbps simulation study, plus the
// Section 5.2 headline that 100 receivers still reach roughly two thirds
// of the line rate with large buffers.
func fig16(opt Options) []*Table {
	tables := simStudy(opt, "fig16", netsim.Rate100Mbps, 90)

	nRecv := 100
	if opt.Quick {
		nRecv = 30
	}
	buf := 2048
	sc := Scenario{
		Seed: 95, LineRate: netsim.Rate100Mbps,
		Buffer: buf * KB, FileSize: fileSize(opt, 40),
		Receivers: groupN(netsim.GroupA, nRecv),
	}
	m := Run(sc)
	tc := &Table{
		ID: "fig16c", Title: fmt.Sprintf("max throughput, %d receivers, large buffers (100 Mbps, simulated)", nRecv),
		XLabel: "buffer KB", YLabel: "throughput Mbps",
		X:      []int{buf},
		Series: []Series{{Label: fmt.Sprintf("%d receivers, group A", nRecv), Y: []float64{m.ThroughputMbps}}},
	}
	tc.AddNote("paper reports ≈66 Mbps for 100 receivers — a modest drop from the 10-receiver case")
	checkInvariants(tc, fmt.Sprintf("%dr", nRecv), m, sc.Mode)
	return append(tables, tc)
}
