// Prometheus-style text rendering of the session's snapshots. Metric
// names are derived from the stats struct fields by reflection, so new
// counters added to internal/stats surface here without further
// plumbing: stats.Sender.PacketsSent becomes
// hrmc_sender_packets_sent{flow=…,id=…}, aggregate totals become
// hrmc_total_sender_packets_sent, and the same for receiver fields.
package control

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"

	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/transport"
)

// snakeCase converts a Go field name (PacketsSent, RateBps, RTTMicros)
// to a metric suffix (packets_sent, rate_bps, rtt_micros): a word starts
// at a capital that follows, or is followed by, a small letter.
func snakeCase(name string) string {
	upper := func(i int) bool { return name[i] >= 'A' && name[i] <= 'Z' }
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if upper(i) {
			if i > 0 && (!upper(i-1) || i+1 < len(name) && !upper(i+1)) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// metricLine is one sample, grouped by name so each metric's # TYPE
// header is emitted once.
type metricLine struct {
	name   string
	labels string
	value  float64
	gauge  bool
}

// statLines renders every int64 field of a stats struct (passed by
// pointer) under prefix with the given label set.
func statLines(prefix, labels string, stat any) []metricLine {
	v := reflect.ValueOf(stat).Elem()
	t := v.Type()
	var out []metricLine
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			continue
		}
		out = append(out, metricLine{
			name:   prefix + snakeCase(t.Field(i).Name),
			labels: labels,
			value:  float64(v.Field(i).Int()),
			gauge:  stats.Gauge(t.Field(i).Name),
		})
	}
	return out
}

func (s *Server) getMetrics(w http.ResponseWriter, r *http.Request) {
	sess := s.mgr.Session()
	flows := s.mgr.List()

	var lines []metricLine
	add := func(name string, value float64, gauge bool, labels string) {
		lines = append(lines, metricLine{name: name, labels: labels, value: value, gauge: gauge})
	}
	add("hrmc_session_budget_bytes_per_second", sess.Budget(), true, "")
	add("hrmc_session_flows", float64(len(flows)), true, "")

	// Shared packet-pool activity: gets - puts is the number of packets
	// currently checked out, so a leak in the zero-copy datapath shows
	// up as a monotonically widening gap; news counts pool misses
	// (fresh allocations).
	pool := packet.PoolStats()
	add("hrmc_packet_pool_gets", float64(pool.Gets), true, "")
	add("hrmc_packet_pool_puts", float64(pool.Puts), true, "")
	add("hrmc_packet_pool_news", float64(pool.News), true, "")
	add("hrmc_packet_pool_outstanding", float64(pool.Gets-pool.Puts), true, "")

	// Process-wide transport datapath health: datagrams dropped for
	// outgrowing the batch receive buffer (previously a silent drop) and
	// per-destination send failures (previously masked by first-error-
	// only returns from the batch writers).
	io := transport.IOStats()
	add("hrmc_transport_truncated_datagrams_total", float64(io.TruncatedDatagrams), false, "")
	add("hrmc_transport_send_errors_total", float64(io.SendErrors), false, "")

	// Wire-side send accounting and segmentation-offload activity.
	// sent_total counts kernel-split wire datagrams (a UDP GSO
	// supersegment contributes its sub-segment count, not 1), so it is
	// comparable whether offload is on or off; datagrams_per_syscall is
	// the amortization the batch + offload machinery is buying.
	add("hrmc_transport_sent_total", float64(io.SentDatagrams), false, "")
	add("hrmc_transport_send_syscalls_total", float64(io.SendSyscalls), false, "")
	add("hrmc_gso_segments_total", float64(io.GsoSegments), false, "")
	add("hrmc_gro_supersegments_total", float64(io.GroSupersegments), false, "")
	add("hrmc_gro_segments_total", float64(io.GroSegments), false, "")
	dps := 0.0
	if io.SendSyscalls > 0 {
		dps = float64(io.SentDatagrams) / float64(io.SendSyscalls)
	}
	add("hrmc_send_datagrams_per_syscall", dps, true, "")

	// Per-shard counters when flows are admitted through a ShardedDialer:
	// membership and traffic per shared group transport.
	if sd, ok := s.mgr.Dialer().(interface{ ShardStats() []transport.GroupStats }); ok {
		for i, st := range sd.ShardStats() {
			labels := fmt.Sprintf(`shard="%d"`, i)
			add("hrmc_shard_groups_joined", float64(st.Joined), true, labels)
			add("hrmc_shard_groups_registered", float64(st.Registered), true, labels)
			add("hrmc_shard_packets_in", float64(st.PktsIn), false, labels)
			add("hrmc_shard_packets_out", float64(st.PktsOut), false, labels)
			add("hrmc_shard_inbox_drops", float64(st.InboxDrops), false, labels)
			add("hrmc_shard_truncated_drops", float64(st.TruncatedDrops), false, labels)
			add("hrmc_shard_send_errors", float64(st.SendErrors), false, labels)
		}
	}

	agg := s.mgr.Aggregate()
	add("hrmc_total_sender_flows", float64(agg.SenderFlows), true, "")
	add("hrmc_total_receiver_flows", float64(agg.ReceiverFlows), true, "")
	lines = append(lines, statLines("hrmc_total_sender_", "", &agg.Sender)...)
	lines = append(lines, statLines("hrmc_total_receiver_", "", &agg.Receiver)...)

	// Repair-tier shape, derived from the receiver aggregates: RepairHead
	// is 1 per head flow (so the sum is the head count) and RepairMembers
	// sums each head's downstream membership. hrmc_head_failovers is the
	// failure-domain headline: how many times a leaf declared its head
	// dead and re-homed to the sender.
	add("hrmc_head_failovers", float64(agg.Receiver.HeadFailovers), false, "")
	add("hrmc_repair_heads", float64(agg.Receiver.RepairHead), true, "")
	if agg.Receiver.RepairHead > 0 {
		add("hrmc_repair_members_per_head",
			float64(agg.Receiver.RepairMembers)/float64(agg.Receiver.RepairHead), true, "")
	}

	for _, fs := range flows {
		labels := fmt.Sprintf(`flow=%q,id="%d",group=%q`,
			escapeLabel(fs.Name), fs.ID, escapeLabel(fs.Group))
		state := 0.0
		if fs.Done {
			state = 1
		}
		add("hrmc_flow_done", state, true, labels)
		add("hrmc_flow_bytes_copied", float64(fs.BytesCopied), false, labels)
		if fs.Sender != nil {
			add("hrmc_flow_weight", fs.Weight, true, labels)
			lines = append(lines, statLines("hrmc_sender_", labels, fs.Sender)...)
		}
		if fs.Receiver != nil {
			lines = append(lines, statLines("hrmc_receiver_", labels, fs.Receiver)...)
		}
	}

	// Group samples by metric name (stable order) under one TYPE header.
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	var b strings.Builder
	prev := ""
	for _, l := range lines {
		if l.name != prev {
			kind := "counter"
			if l.gauge {
				kind = "gauge"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", l.name, kind)
			prev = l.name
		}
		if l.labels == "" {
			fmt.Fprintf(&b, "%s %v\n", l.name, l.value)
		} else {
			fmt.Fprintf(&b, "%s{%s} %v\n", l.name, l.labels, l.value)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
