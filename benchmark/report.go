package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"syscall"

	"repro/internal/packet"
	"repro/internal/stats"
)

// metricValue is one reported metric, in the form the last line of a
// run's output carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is one run of one workload: the JSON object a run prints
// as its last line, plus what a results file keeps about it.
type runOutput struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples states how many observations stand behind the completion
	// metrics.
	Samples map[string]int `json:"samples,omitempty"`
	Errors  []string       `json:"errors,omitempty"`
}

// lastLine is the object the benchmark contract asks for: exactly
// correct, attempted, failed and metrics.
func (o *runOutput) lastLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, o.Metrics})
	return string(b)
}

func toOutput(w workload, seed uint64, ms []*measurement, defs []metricDef, values map[string]float64) *runOutput {
	o := &runOutput{
		Workload: w.Name, Seed: seed, Correct: true,
		Metrics: make(map[string]metricValue, len(defs)),
		Samples: map[string]int{},
	}
	for _, m := range ms {
		o.Attempted += m.Ops
		o.Failed += m.Failed
		o.Samples["completion"] += len(m.Completion)
		o.Errors = append(o.Errors, m.Errors...)
	}
	o.Correct = o.Failed == 0
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.Correct = false
			o.Errors = append(o.Errors, fmt.Sprintf("metric %s is not finite", d.Name))
			v = 0
		}
		o.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return o
}

// printMetrics lists every metric by name with its unit.
func printMetrics(w io.Writer, o *runOutput, defs []metricDef) {
	fmt.Fprintf(w, "%s  seed %d  ops %d  failed_ops %d  correct %v\n", o.Workload, o.Seed, o.Attempted, o.Failed, o.Correct)
	for _, d := range defs {
		note := ""
		if d.Name == "completion_mean_ms" || d.Name == "completion_p90_ms" {
			note = fmt.Sprintf("  (%d MiB)", o.Samples["completion"])
		}
		fmt.Fprintf(w, "  %-38s %14.4f %s%s\n", d.Name, o.Metrics[d.Name].Value, d.Unit, note)
	}
	for _, e := range o.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

const mb = 1e6

// parityWire is a parity packet on the wire: header, the 3-byte
// length/flags prefix, and a payload as long as the group's longest.
const parityWire = packet.HeaderSize + 3 + flowMSS

// wireBytes is everything the senders put on the wire, from their
// counters: first transmissions, retransmissions, parity, and the
// header-only control packets.
func wireBytes(s *stats.Sender) float64 {
	control := s.ProbesSent + s.MulticastProbesSent + s.KeepalivesSent + s.NakErrsSent +
		s.JoinsReceived + s.LeavesReceived // each JOIN and LEAVE is answered
	return float64(s.BytesSent + s.RetransBytes +
		(s.PacketsSent+s.Retransmissions+control)*packet.HeaderSize +
		s.FecParitySent*parityWire)
}

// endToEndValues derives the end-to-end metrics from an untraced run,
// over the whole window: window open until the last receiver's EOF.
func endToEndValues(m *measurement) map[string]float64 {
	completion := sortedCopy(m.Completion)
	return map[string]float64{
		"setup_s":            m.Setup.Seconds(),
		"goodput_mb_s":       ratio(float64(m.Bytes)/mb, m.Elapsed.Seconds()),
		"wire_efficiency":    ratio(float64(m.Sender.BytesSent), wireBytes(&m.Sender)),
		"completion_mean_ms": mean(completion),
		"completion_p90_ms":  quantile(completion, 0.90),
	}
}

// meanOf combines the copies of one run: every metric is the mean over
// the copies, operations, samples and errors add up.
func meanOf(copies []*runOutput) *runOutput {
	o := &runOutput{
		Workload: copies[0].Workload, Seed: copies[0].Seed, Correct: true,
		Metrics: make(map[string]metricValue),
		Samples: make(map[string]int),
	}
	for _, c := range copies {
		o.Correct = o.Correct && c.Correct
		o.Attempted += c.Attempted
		o.Failed += c.Failed
		o.Errors = append(o.Errors, c.Errors...)
		for k, n := range c.Samples {
			o.Samples[k] += n
		}
		for k, v := range c.Metrics {
			o.Metrics[k] = metricValue{o.Metrics[k].Value + v.Value/float64(len(copies)), v.Unit}
		}
	}
	return o
}

// pathCostNs adds up the ledger entries on w's packet path: what the
// layers, timed alone, say one first-transmission packet costs from
// Write to Read at every receiver. The session's own staging, demux and
// scheduling are not in the ledger, so they land in the unexplained
// share together with the harness's record handling.
func pathCostNs(w workload, ledger map[string]float64) float64 {
	r := float64(w.receivers)
	sum := ledger["sender.machine_ns_pkt"] + r*ledger["receiver.machine_ns_pkt"]
	switch {
	case w.hub:
		sum += ledger["transport.hub_ns_pkt"]
	case w.churn:
		sum += ledger["udpmcast.group_send_ns_pkt"] + r*ledger["udpmcast.group_demux_ns_pkt"]
	default:
		sum += ledger["udpmcast.send_ns_pkt"] + r*ledger["udpmcast.recv_ns_pkt"]
	}
	if w.fecK > 0 {
		sum += ledger["fec.encode_ns_pkt"]
	}
	return sum
}

// tracedValues derives the traced run's layer metrics. untraced is the
// same workload, seed and window without taps; ledger is the layer
// ledger.
func tracedValues(w workload, traced, untraced *measurement, t *tracer, recs []recordSpans, ledger map[string]float64) map[string]float64 {
	v := make(map[string]float64)
	for k, x := range ledger {
		v[k] = x
	}
	sm := meansOf(recs)
	v["span.sender_queue_mean_ms"] = sm.queue
	v["span.wire_mean_ms"] = sm.wire
	v["span.receiver_reassembly_mean_ms"] = sm.reassembly
	v["span.unexplained_share"] = ratio(sm.unexplained, sm.delivery)

	delivery := sortedCopy(traced.Delivery)
	v["app.delivery_mean_ms"] = mean(delivery)
	v["app.delivery_p50_ms"] = quantile(delivery, 0.50)
	v["app.delivery_p90_ms"] = quantile(delivery, 0.90)
	v["app.delivery_p99_ms"] = quantile(delivery, 0.99)
	v["app.records"] = float64(len(delivery))

	secs := traced.Elapsed.Seconds()
	v["session.open_ms"] = float64(traced.OpenRaw) / 1e6
	v["session.close_drain_ms"] = float64(traced.CloseDrain) / 1e6

	var sendCalls, sendPkts, sendNs, recvCalls, recvPkts, dataIn, feedback float64
	var intervals []float64
	for _, p := range t.taps {
		if p.sending {
			sendCalls += float64(p.sendCalls.Load())
			sendPkts += float64(p.sendPkts.Load())
			sendNs += float64(p.sendNs.Load())
			intervals = append(intervals, p.intervals...)
		} else {
			recvCalls += float64(p.recvCalls.Load())
			recvPkts += float64(p.recvPkts.Load())
			dataIn += float64(p.dataIn.Load())
			feedback += float64(p.sendPkts.Load())
		}
	}
	v["session.send_interval_p50_ms"] = quantile(sortedCopy(intervals), 0.50)
	v["session.pkts_per_send_batch"] = ratio(sendPkts, sendCalls)
	v["session.pkts_per_recv_batch"] = ratio(recvPkts, recvCalls)
	v["transport.send_ns_pkt"] = ratio(sendNs, sendPkts)
	v["transport.send_busy_share"] = ratio(sendNs/1e9, secs)
	v["transport.send_calls_per_s"] = ratio(sendCalls, secs)

	s, r := &traced.Sender, &traced.Receiver
	pkts := float64(s.PacketsSent)
	v["sender.retrans_ratio"] = ratio(float64(s.Retransmissions), pkts)
	v["sender.naks_per_kpkt"] = 1000 * ratio(float64(s.NaksReceived), pkts)
	v["sender.rate_requests_per_s"] = ratio(float64(s.RateRequestsReceived), secs)
	v["sender.urgent_per_s"] = ratio(float64(s.UrgentReceived), secs)
	v["sender.release_stalls_per_s"] = ratio(float64(s.ReleaseStalls), secs)
	v["sender.release_complete_info_ratio"] = ratio(float64(s.ReleasesCompleteInfo), float64(s.Releases))
	v["sender.probes_per_kpkt"] = 1000 * ratio(float64(s.ProbesSent+s.MulticastProbesSent), pkts)

	gaps := sortedCopy(t.gapMs)
	v["receiver.recovery_mean_ms"] = mean(gaps)
	v["receiver.recovery_p50_ms"] = quantile(gaps, 0.50)
	v["receiver.recovery_p90_ms"] = quantile(gaps, 0.90)
	v["receiver.recovery_p99_ms"] = quantile(gaps, 0.99)
	got := float64(r.DataReceived)
	v["receiver.gaps_per_kpkt"] = 1000 * ratio(float64(len(gaps)), got)
	v["receiver.duplicate_ratio"] = ratio(float64(r.Duplicates), got)
	v["receiver.out_of_window_per_kpkt"] = 1000 * ratio(float64(r.OutOfWindow), got)
	v["receiver.nak_retry_ratio"] = ratio(float64(r.NakRetries), float64(r.NaksSent))
	v["receiver.feedback_pkts_per_data_pkt"] = ratio(feedback, dataIn)
	v["receiver.max_fill_permille"] = float64(r.MaxFillPermille)

	v["fec.parity_ratio"] = ratio(float64(s.FecParitySent), pkts)
	v["fec.recovered_per_drop"] = ratio(float64(r.FecRecovered), float64(traced.Dropped))
	v["fec.wasted_parity_ratio"] = ratio(float64(r.FecParityWasted), float64(r.FecParityHeard))
	v["fec.fallback_naks_per_kpkt"] = 1000 * ratio(float64(r.FecFallbackNaks), got)
	v["inject.dropped_per_kpkt"] = 1000 * ratio(float64(traced.Dropped), float64(traced.Offered))

	sent := float64(t.io1.SentDatagrams - t.io0.SentDatagrams)
	v["io.dgrams_per_syscall"] = ratio(sent, float64(t.io1.SendSyscalls-t.io0.SendSyscalls))
	v["io.gso_segment_share"] = ratio(float64(t.io1.GsoSegments-t.io0.GsoSegments), sent)
	v["io.gro_segment_share"] = ratio(float64(t.io1.GroSegments-t.io0.GroSegments), recvPkts)
	v["io.send_errors"] = float64(t.io1.SendErrors - t.io0.SendErrors)
	v["io.truncated"] = float64(t.io1.TruncatedDatagrams - t.io0.TruncatedDatagrams)
	v["packet.pool_miss_ratio"] = ratio(float64(t.pool1.News-t.pool0.News), float64(t.pool1.Gets-t.pool0.Gets))

	v["runtime.allocs_per_pkt"] = ratio(float64(t.mem1.Mallocs-t.mem0.Mallocs), pkts)
	v["runtime.alloc_bytes_per_pkt"] = ratio(float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc), pkts)
	v["runtime.gc_pause_ms_per_s"] = ratio(float64(t.mem1.PauseTotalNs-t.mem0.PauseTotalNs)/1e6, secs)
	v["runtime.goroutines_peak"] = float64(t.goroutines.Load())

	cores := float64(numCPU())
	v["process.cpu_user_share"] = ratio(traced.CPUUser.Seconds(), secs*cores)
	v["process.cpu_sys_share"] = ratio(traced.CPUSys.Seconds(), secs*cores)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		v["process.rss_peak_mb"] = float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB
	}

	// CPU cost and the ledger reconciliation use the untraced run: taps
	// would count as stack cost.
	v["process.cpu_ms_per_mb"] = ratio(float64(untraced.cpu())/1e6, float64(untraced.Bytes)/mb)
	e2e := ratio(float64(untraced.cpu()), float64(untraced.Sender.PacketsSent))
	sum := pathCostNs(w, ledger)
	v["ledger.e2e_cpu_ns_pkt"] = e2e
	v["ledger.layers_sum_ns_pkt"] = sum
	v["ledger.unexplained_share"] = ratio(e2e-sum, e2e)

	v["trace.overhead_ratio"] = ratio(
		ratio(float64(traced.Bytes), traced.Elapsed.Seconds()),
		ratio(float64(untraced.Bytes), untraced.Elapsed.Seconds()))
	return v
}
