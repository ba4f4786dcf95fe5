package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The catalogue below is
// the single source of the names, units and bounds that BENCHMARK.json,
// README.md and every report print; a later performance claim in this
// repository is stated in these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression (0 for layer
	// metrics, which are reported and never gated).
	Bound float64
}

// endToEnd are the metrics a user of the library feels. They are
// measured with tracing off: no taps, no trace sink. The bounds are the
// ones the issue behind this benchmark fixed (wire_efficiency's 0.01
// absolute is 0.01 of a ratio near 1). Three metrics the issue named did
// not hold their bound on every workload and are layer metrics instead:
// app.delivery_mean_ms, app.delivery_p90_ms and process.cpu_ms_per_mb
// (REPEATABILITY.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.05},
	{"goodput_mb_s", "MB/s", "higher", 0.08},
	{"wire_efficiency", "ratio", "higher", 0.01},
	{"completion_mean_ms", "ms", "lower", 0.08},
	{"completion_p90_ms", "ms", "lower", 0.10},
}

// ledgerMetrics are the layer ledger: each layer's public functions
// timed in a tight loop from outside (layers.go).
var ledgerMetrics = []metricDef{
	{"packet.encode_ns_pkt", "ns", "lower", 0},
	{"packet.decode_borrow_ns_pkt", "ns", "lower", 0},
	{"packet.pool_cycle_ns_pkt", "ns", "lower", 0},
	{"packet.allocs_pkt", "count", "lower", 0},
	{"window.send_insert_release_ns_pkt", "ns", "lower", 0},
	{"window.recv_insert_read_ns_pkt", "ns", "lower", 0},
	{"window.recv_ooo_ns_pkt", "ns", "lower", 0},
	{"membership.update_ns_op", "ns", "lower", 0},
	{"membership.min_next_ns_op", "ns", "lower", 0},
	{"rate.allowance_spend_ns_op", "ns", "lower", 0},
	{"fec.encode_ns_pkt", "ns", "lower", 0},
	{"fec.recover_ns_group", "ns", "lower", 0},
	{"sender.machine_ns_pkt", "ns", "lower", 0},
	{"sender.machine_allocs_pkt", "count", "lower", 0},
	{"sender.retransmit_ns_pkt", "ns", "lower", 0},
	{"receiver.machine_ns_pkt", "ns", "lower", 0},
	{"receiver.machine_allocs_pkt", "count", "lower", 0},
	{"receiver.gap_path_ns_pkt", "ns", "lower", 0},
	{"repair.retain_answer_ns_pkt", "ns", "lower", 0},
	{"transport.hub_ns_pkt", "ns", "lower", 0},
	{"transport.hub_allocs_pkt", "count", "lower", 0},
	{"udpmcast.send_ns_pkt", "ns", "lower", 0},
	{"udpmcast.recv_ns_pkt", "ns", "lower", 0},
	{"udpmcast.dgrams_per_syscall", "count", "higher", 0},
	{"udpmcast.group_send_ns_pkt", "ns", "lower", 0},
	{"udpmcast.group_demux_ns_pkt", "ns", "lower", 0},
	{"udpmcast.wire_mb_s", "MB/s", "higher", 0},
}

// tracedMetrics come from the traced run of a workload (trace.go): the
// benchmark's own taps around every transport handed to the session, a
// trace sink on the receivers, and the program's counters.
var tracedMetrics = []metricDef{
	{"span.sender_queue_mean_ms", "ms", "lower", 0},
	{"span.wire_mean_ms", "ms", "lower", 0},
	{"span.receiver_reassembly_mean_ms", "ms", "lower", 0},
	{"span.unexplained_share", "ratio", "lower", 0},
	{"app.delivery_mean_ms", "ms", "lower", 0},
	{"app.delivery_p50_ms", "ms", "lower", 0},
	{"app.delivery_p90_ms", "ms", "lower", 0},
	{"app.delivery_p99_ms", "ms", "lower", 0},
	{"app.records", "count", "higher", 0},
	{"session.open_ms", "ms", "lower", 0},
	{"session.close_drain_ms", "ms", "lower", 0},
	{"session.send_interval_p50_ms", "ms", "lower", 0},
	{"session.pkts_per_send_batch", "count", "higher", 0},
	{"session.pkts_per_recv_batch", "count", "higher", 0},
	{"transport.send_ns_pkt", "ns", "lower", 0},
	{"transport.send_busy_share", "ratio", "lower", 0},
	{"transport.send_calls_per_s", "1/s", "lower", 0},
	{"sender.retrans_ratio", "ratio", "lower", 0},
	{"sender.naks_per_kpkt", "count", "lower", 0},
	{"sender.rate_requests_per_s", "1/s", "lower", 0},
	{"sender.urgent_per_s", "1/s", "lower", 0},
	{"sender.release_stalls_per_s", "1/s", "lower", 0},
	{"sender.release_complete_info_ratio", "ratio", "higher", 0},
	{"sender.probes_per_kpkt", "count", "lower", 0},
	{"receiver.recovery_mean_ms", "ms", "lower", 0},
	{"receiver.recovery_p50_ms", "ms", "lower", 0},
	{"receiver.recovery_p90_ms", "ms", "lower", 0},
	{"receiver.recovery_p99_ms", "ms", "lower", 0},
	{"receiver.gaps_per_kpkt", "count", "lower", 0},
	{"receiver.duplicate_ratio", "ratio", "lower", 0},
	{"receiver.out_of_window_per_kpkt", "count", "lower", 0},
	{"receiver.nak_retry_ratio", "ratio", "lower", 0},
	{"receiver.feedback_pkts_per_data_pkt", "ratio", "lower", 0},
	{"receiver.max_fill_permille", "count", "lower", 0},
	{"fec.parity_ratio", "ratio", "lower", 0},
	{"fec.recovered_per_drop", "ratio", "higher", 0},
	{"fec.wasted_parity_ratio", "ratio", "lower", 0},
	{"fec.fallback_naks_per_kpkt", "count", "lower", 0},
	{"inject.dropped_per_kpkt", "count", "lower", 0},
	{"io.dgrams_per_syscall", "count", "higher", 0},
	{"io.gso_segment_share", "ratio", "higher", 0},
	{"io.gro_segment_share", "ratio", "higher", 0},
	{"io.send_errors", "count", "lower", 0},
	{"io.truncated", "count", "lower", 0},
	{"packet.pool_miss_ratio", "ratio", "lower", 0},
	{"runtime.allocs_per_pkt", "count", "lower", 0},
	{"runtime.alloc_bytes_per_pkt", "B", "lower", 0},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"process.cpu_user_share", "ratio", "lower", 0},
	{"process.cpu_sys_share", "ratio", "lower", 0},
	{"process.rss_peak_mb", "MB", "lower", 0},
	{"process.cpu_ms_per_mb", "ms/MB", "lower", 0},
	{"ledger.e2e_cpu_ns_pkt", "ns", "lower", 0},
	{"ledger.layers_sum_ns_pkt", "ns", "lower", 0},
	{"ledger.unexplained_share", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
}

// perLayer is every layer metric: the ledger, then the traced run.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), ledgerMetrics...), tracedMetrics...)
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when the denominator is empty: a layer that did
// nothing on a workload reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
