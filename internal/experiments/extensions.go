package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// extEarlyProbe is the ablation for the early-probe extension (Section
// 7, item 1). With small buffers H-RMC behaves like stop-and-wait: the
// window fills, the MINBUF deadline passes, the sender probes, and a
// full probe round trip passes before release. Probing EarlyProbeRTTs
// before the deadline overlaps the probe exchange with the tail of the
// hold time. Receivers' update periods are pinned long so probes — not
// periodic updates — carry the release information, isolating the
// mechanism under study.
func extEarlyProbe(opt Options) []*Table {
	bufs := []int{32, 64, 128, 256}
	if opt.Quick {
		bufs = []int{32, 128}
	}
	variants := []string{"baseline", "early 4 RTTs"}
	rtts := []float64{0, 4}
	tables := sweep{
		xLabel: "buffer KB", x: bufs, series: variants, seeds: opt.Seeds,
		point: func(s, b int) (Scenario, string) {
			return Scenario{
				Seed: 200, LineRate: netsim.Rate10Mbps,
				Buffer: b * KB, FileSize: fileSize(opt, 4),
				Receivers:      groupN(netsim.GroupC, 3),
				UpdatePeriod:   20 * sim.Second, // pin: probes do the work
				EarlyProbeRTTs: rtts[s],
			}, fmt.Sprintf("%s/%dK", variants[s], b)
		},
	}.run(plot{
		id:     "ext-earlyprobe",
		title:  "early-probe ablation: throughput with probe-bound releases (10 Mbps, 3 WAN receivers)",
		yLabel: "throughput Mbps", y: throughput,
	})
	tables[0].AddNote("early probes hide the probe round trip inside the MINBUF hold; gains concentrate at small buffers")
	return tables
}

// extMulticastProbe is the ablation for the multicast-probe extension
// (Section 7, item 2): with many receivers lagging at once, one
// multicast PROBE replaces a burst of unicasts. The series compare the
// probe packets transmitted; throughput stays comparable (the table's
// second panel) while sender probe traffic collapses.
func extMulticastProbe(opt Options) []*Table {
	counts := []int{10, 25, 50}
	if opt.Quick {
		counts = []int{10, 25}
	}
	variants := []string{"unicast probes", "multicast ≥4"}
	thresholds := []int{0, 4}
	tables := sweep{
		xLabel: "receivers", x: counts, series: variants, seeds: opt.Seeds,
		point: func(s, n int) (Scenario, string) {
			return Scenario{
				Seed: 210, LineRate: netsim.Rate10Mbps,
				Buffer: 64 * KB, FileSize: fileSize(opt, 2),
				Receivers:               groupN(netsim.GroupC, n),
				UpdatePeriod:            20 * sim.Second,
				MulticastProbeThreshold: thresholds[s],
			}, fmt.Sprintf("%s/%d", variants[s], n)
		},
	}.run(plot{
		id:     "ext-mcastprobe",
		title:  "multicast-probe ablation: probe packets sent (10 Mbps, WAN receivers, 64K buffers)",
		yLabel: "probe packets", y: func(m Metrics) float64 { return m.ProbesSent },
	}, plot{
		id:     "ext-mcastprobe-tp",
		title:  "multicast-probe ablation: throughput (same runs)",
		yLabel: "throughput Mbps", y: throughput,
	})
	tables[0].AddNote("ProbesSent counts multicast probes once; wire copies scale with the group via IP multicast")
	return tables
}

// extFec is the ablation for the forward-error-correction extension
// (Section 7, item 4): XOR parity every K packets lets receivers repair
// single losses locally. On a lossy wide-area path this converts most
// NAK round trips into silent local rebuilds — the paper's motivation
// for wireless environments, where uncorrelated tail-link loss
// dominates.
func extFec(opt Options) []*Table {
	tables := sweep{
		xLabel: "fec group K", x: []int{0, 4, 8, 16}, series: []string{""}, seeds: opt.Seeds,
		point: func(_, k int) (Scenario, string) {
			return Scenario{
				Seed: 230, LineRate: netsim.Rate10Mbps,
				Buffer: 256 * KB, FileSize: fileSize(opt, 4),
				Receivers:    groupN(netsim.GroupC, 5),
				FECGroupSize: k,
			}, fmt.Sprintf("K=%d", k)
		},
	}.run(plot{
		id:     "ext-fec",
		title:  "FEC ablation: NAKs at the sender (10 Mbps, 5 WAN receivers, 256K buffers)",
		yLabel: "naks", suffix: "naks", y: naks,
	}, plot{
		id:     "ext-fec-tp",
		title:  "FEC ablation: throughput and recoveries (same runs)",
		yLabel: "value", suffix: "throughput Mbps", y: throughput,
	})
	tables[0].AddNote("K=0 disables FEC; smaller K trades more parity overhead for more single-loss coverage")
	tables[0].AddNote("FEC trades throughput (parity overhead + quieter feedback) for a large cut in NAKs and retransmissions — the right trade for the paper's wireless motivation")
	return tables
}

// extLocalRecovery is the ablation for the local-recovery extension
// (Section 7, item 3): NAKs are multicast with SRM-style suppression and
// peers serve repairs, offloading the sender's retransmitter. In this
// topology peers are no closer than the sender, so the benefit shows up
// as sender offload (fewer sender retransmissions, repairs served by the
// group), not as lower latency.
func extLocalRecovery(opt Options) []*Table {
	counts := []int{5, 10, 20}
	if opt.Quick {
		counts = []int{5, 10}
	}
	variants := []string{"centralized", "local recovery"}
	tables := sweep{
		xLabel: "receivers", x: counts, series: variants, seeds: opt.Seeds,
		point: func(s, n int) (Scenario, string) {
			return Scenario{
				Seed: 240, LineRate: netsim.Rate10Mbps,
				Buffer: 256 * KB, FileSize: fileSize(opt, 4),
				Receivers:     groupN(netsim.GroupC, n),
				LocalRecovery: s == 1,
			}, fmt.Sprintf("%s/%d", variants[s], n)
		},
	}.run(plot{
		id:     "ext-localrec",
		title:  "local-recovery ablation: sender retransmissions (10 Mbps, WAN receivers, 256K buffers)",
		yLabel: "sender retransmissions", y: func(m Metrics) float64 { return m.Retrans },
	}, plot{
		id:     "ext-localrec-tp",
		title:  "local-recovery ablation: throughput and repairs (same runs)",
		yLabel: "value", suffix: " Mbps", y: throughput,
	})
	tables[0].AddNote("repairs multicast by peers replace sender retransmissions; delivery guarantees are unchanged")
	return tables
}

// extScaling studies receiver-count scaling beyond the paper's 100 (the
// Section 5.2 discussion: feedback processing at the sender eventually
// costs throughput, which RMTP-style local processing would address).
// One run per point (many-receiver runs are heavy).
func extScaling(opt Options) []*Table {
	counts := []int{1, 5, 10, 25, 50, 100, 200}
	if opt.Quick {
		counts = []int{1, 10, 50}
	}
	tables := sweep{
		xLabel: "receivers", x: counts, series: []string{"H-RMC"}, seeds: 1,
		point: func(_, n int) (Scenario, string) {
			return Scenario{
				Seed: 220, LineRate: netsim.Rate10Mbps,
				Buffer: 1024 * KB, FileSize: fileSize(opt, 10),
				Receivers: groupN(netsim.GroupA, n),
			}, fmt.Sprintf("%dr", n)
		},
	}.run(plot{
		id:     "ext-scaling",
		title:  "receiver scaling: throughput (10 Mbps, group A, 1024K buffers)",
		yLabel: "throughput Mbps", y: throughput,
	}, plot{
		id:     "ext-scaling-fb",
		title:  "receiver scaling: feedback packets at the sender (same runs)",
		yLabel: "updates+naks+rate requests",
		y:      func(m Metrics) float64 { return m.Updates + m.Naks + m.RateRequests + m.Urgents },
	})
	tables[0].AddNote("the paper stops at 100 receivers and points to RMTP-style local processing beyond")
	return tables
}
