// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the release-information study (Figure 3), the
// experimental LAN study at 10 and 100 Mbps (Figures 10–13), and the
// simulation study over characteristic groups (Figures 14–16). Each
// figure is a Runner in the Registry; nearly all of them are one sweep,
// which averages a scenario over seeded runs at every point of a series ×
// X grid and plots what each of its tables asks of the result.
// cmd/hrmc-figures drives the Registry.
package experiments

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/app"
	"repro/internal/netsim"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario describes one simulated transfer.
type Scenario struct {
	Seed     uint64
	LineRate float64 // bytes/second
	Buffer   int     // per-socket kernel buffer, bytes (sndbuf == rcvbuf)
	FileSize int64
	// Receivers lists one characteristic group per receiver.
	Receivers []netsim.Group
	// DiskIO selects the disk-to-disk application model.
	DiskIO bool
	// Mode selects H-RMC or the RMC baseline.
	Mode sender.Mode
	// NICQueueBytes overrides the egress queue bound (0 keeps default).
	NICQueueBytes int
	// UpdatePeriod overrides the receivers' initial update period.
	UpdatePeriod sim.Time
	// Limit bounds the run (default 2000 s of virtual time).
	Limit sim.Time
	// Extensions.
	EarlyProbeRTTs          float64
	MulticastProbeThreshold int
	FECGroupSize            int
	LocalRecovery           bool
	// TraceTo, when non-nil, receives a text protocol-event trace from
	// every party.
	TraceTo io.Writer
}

// Metrics is what a run yields, aggregating the counters the paper
// plots.
type Metrics struct {
	Completed      bool
	Duration       sim.Time
	ThroughputMbps float64

	// Sender-side feedback activity (what Figures 11, 13, 15(b), 16(b)
	// count: arrivals at the sender).
	Naks         float64
	RateRequests float64
	Urgents      float64
	Updates      float64
	ProbesSent   float64
	Retrans      float64
	NakErrs      float64

	// Figure 3 metric, in percent.
	ReleaseInfoPct float64

	NICDrops, RouterDrops float64
	BadBytes              float64
}

// Run executes one scenario and returns its metrics.
func Run(sc Scenario) Metrics {
	if sc.Limit <= 0 {
		sc.Limit = 2000 * sim.Second
	}
	cfg := netsim.DefaultConfig(sc.LineRate, sc.Seed)
	if sc.NICQueueBytes != 0 {
		cfg.NICQueueBytes = sc.NICQueueBytes
	}
	net := netsim.New(cfg)

	rcfg := rate.DefaultConfig()
	rcfg.MaxRate = sc.LineRate

	diskRng := sim.NewRNG(sc.Seed ^ 0xD15C)
	var src app.Source
	if sc.DiskIO {
		src = app.NewDiskSource(sc.FileSize, app.DefaultDiskSourceConfig(diskRng.Stream(0)))
	} else {
		src = app.NewMemorySource(sc.FileSize)
	}
	// Seed the worst-receiver RTT estimate from the deployment's most
	// distant group (the paper's sender learns it from the first JOIN
	// exchanges; seeding avoids an unprotected warm-up window).
	var maxDelay sim.Time
	for _, g := range sc.Receivers {
		if g.Delay > maxDelay {
			maxDelay = g.Delay
		}
	}
	var sndTrace trace.Sink
	if sc.TraceTo != nil {
		sndTrace = trace.NewTextSink(sc.TraceTo, "snd")
	}
	s := sender.New(sender.Config{
		SndBuf:                  sc.Buffer,
		Mode:                    sc.Mode,
		Rate:                    rcfg,
		InitialRTT:              2*maxDelay + 10*sim.Millisecond,
		ExpectedReceivers:       len(sc.Receivers),
		EarlyProbeRTTs:          sc.EarlyProbeRTTs,
		MulticastProbeThreshold: sc.MulticastProbeThreshold,
		FECGroupSize:            sc.FECGroupSize,
		LocalRecovery:           sc.LocalRecovery,
		Trace:                   sndTrace,
	})
	net.AddSender(s, src)

	rmode := receiver.HRMC
	if sc.Mode == sender.RMC {
		rmode = receiver.RMC
	}
	for i, g := range sc.Receivers {
		var sink app.Sink = app.MemorySink{}
		if sc.DiskIO {
			sink = app.NewDiskSink(app.DefaultDiskSinkConfig(diskRng.Stream(uint64(i) + 1)))
		}
		var rcvTrace trace.Sink
		if sc.TraceTo != nil {
			rcvTrace = trace.NewTextSink(sc.TraceTo, fmt.Sprintf("rcv%d", i))
		}
		r := receiver.New(receiver.Config{
			RcvBuf:              sc.Buffer,
			Mode:                rmode,
			InitialUpdatePeriod: sc.UpdatePeriod,
			AssumedRTT:          2 * g.Delay,
			FECGroupSize:        sc.FECGroupSize,
			LocalRecovery:       sc.LocalRecovery,
			Trace:               rcvTrace,
		})
		net.AddReceiver(r, g, sink)
	}

	res := net.Run(sc.Limit)
	st := s.Stats()
	m := Metrics{
		Completed:      res.Completed,
		Duration:       res.Duration,
		ThroughputMbps: res.ThroughputMbps(),
		Naks:           float64(st.NaksReceived),
		RateRequests:   float64(st.RateRequestsReceived),
		Urgents:        float64(st.UrgentReceived),
		Updates:        float64(st.UpdatesReceived),
		ProbesSent:     float64(st.ProbesSent + st.MulticastProbesSent),
		Retrans:        float64(st.Retransmissions),
		NakErrs:        float64(st.NakErrsSent),
		ReleaseInfoPct: 100 * st.ReleaseInfoRatio(),
		NICDrops:       float64(res.NICDrops),
		RouterDrops:    float64(res.RouterDrops),
	}
	for _, r := range net.Receivers() {
		m.BadBytes += float64(r.BadBytes)
	}
	return m
}

// RunAvg averages seeds runs of the scenario (seeds ≥ 1), mirroring the
// paper's five-test averages: run i takes seed sc.Seed + i·1000003, every
// numeric field is summed in seed order and divided by seeds, and the
// average completed only if every run did.
func RunAvg(sc Scenario, seeds int) Metrics {
	seeds = max(seeds, 1)
	acc := Metrics{Completed: true}
	sum := reflect.ValueOf(&acc).Elem()
	for i := 0; i < seeds; i++ {
		s := sc
		s.Seed = sc.Seed + uint64(i)*1000003
		m := reflect.ValueOf(Run(s))
		for f := 0; f < sum.NumField(); f++ {
			switch a, v := sum.Field(f), m.Field(f); a.Kind() {
			case reflect.Bool:
				a.SetBool(a.Bool() && v.Bool())
			case reflect.Int64:
				a.SetInt(a.Int() + v.Int())
			case reflect.Float64:
				a.SetFloat(a.Float() + v.Float())
			default:
				panic("experiments: RunAvg cannot average Metrics." + sum.Type().Field(f).Name)
			}
		}
	}
	n := float64(seeds)
	for f := 0; f < sum.NumField(); f++ {
		switch a := sum.Field(f); a.Kind() {
		case reflect.Int64:
			a.SetInt(int64(float64(a.Int()) / n))
		case reflect.Float64:
			a.SetFloat(a.Float() / n)
		}
	}
	return acc
}

// groupN returns n receivers all in group g.
func groupN(g netsim.Group, n int) []netsim.Group {
	gs := make([]netsim.Group, n)
	for i := range gs {
		gs[i] = g
	}
	return gs
}

// mix returns receivers split between two groups.
func mix(a netsim.Group, na int, b netsim.Group, nb int) []netsim.Group {
	return append(groupN(a, na), groupN(b, nb)...)
}

// MB is a file-size unit.
const MB = int64(1) << 20

// KB is a buffer-size unit.
const KB = 1 << 10
