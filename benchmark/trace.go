package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The traced run. Everything here is the benchmark's own: taps wrap the
// transports handed to the session and time the calls into them, a
// trace.Sink collects the receivers' GapFilled events, and the
// program's counters (Stats, IOStats, PoolStats, runtime) are read at
// the window's edges. Nothing is recorded inside the program under
// test. End-to-end metrics are never taken from a traced run; the
// ratio of the two runs' goodput is the tracing overhead.

// streamKey names one stream at the taps: the sender's header port,
// and the group tag on a shared group transport (0 elsewhere).
type streamKey struct {
	gid   transport.GroupID
	sport uint16
}

// sendTable is what a sender tap learns about one stream from its
// first transmissions, indexed by sequence number (streams start at 0):
// the stream offset each packet ends at, and when it entered the tap.
type sendTable struct {
	ends   []int64
	sentAt []int64
}

// tap wraps one transport handed to the session.
type tap struct {
	wrapped
	t       *tracer
	id      int  // position among the run's taps
	sending bool // carries a sender flow's DATA out

	// Counted while the window is open.
	sendCalls, sendPkts, sendNs atomic.Int64
	recvCalls, recvPkts         atomic.Int64
	dataIn                      atomic.Int64 // DATA+FEC packets received

	// The tables below belong to the one goroutine that drives the
	// respective direction (a transport has one send poller and one
	// receive loop); they are read after the session has closed.
	sent      map[streamKey]*sendTable
	arrived   map[streamKey][]int64 // first arrival per sequence number
	lastData  int64                 // previous DATA-bearing SendBatch
	intervals []float64             // ms between DATA-bearing SendBatches
}

var (
	_ transport.Transport         = (*tap)(nil)
	_ transport.BatchTransport    = (*tap)(nil)
	_ transport.FilteredTransport = (*tap)(nil)
)

func (p *tap) SendBatch(env []transport.Envelope) error {
	start := p.t.since()
	data := 0
	for i := range env {
		h := &env[i].Pkt.Header
		if h.Type != packet.TypeData && h.Type != packet.TypeFec {
			continue
		}
		data++
		if !p.sending || h.Type != packet.TypeData || h.Tries != 0 {
			continue
		}
		key := streamKey{env[i].Group, h.SrcPort}
		st := p.sent[key]
		if st == nil {
			st = &sendTable{}
			p.sent[key] = st
		}
		if int(h.Seq) != len(st.ends) {
			continue // not the next first transmission: leave the record unexplained
		}
		end := int64(len(env[i].Pkt.Payload))
		if n := len(st.ends); n > 0 {
			end += st.ends[n-1]
		}
		st.ends = append(st.ends, end)
		st.sentAt = append(st.sentAt, start)
	}
	err := p.bt.SendBatch(env)
	if !p.t.active.Load() {
		return err
	}
	p.sendCalls.Add(1)
	p.sendPkts.Add(int64(len(env)))
	p.sendNs.Add(p.t.since() - start)
	if p.sending && data > 0 {
		if p.lastData > 0 {
			p.intervals = append(p.intervals, float64(start-p.lastData)/1e6)
		}
		p.lastData = start
	}
	return err
}

func (p *tap) RecvBatch(buf []transport.Envelope) (int, error) {
	n, err := p.bt.RecvBatch(buf)
	if n == 0 {
		return n, err
	}
	now := p.t.since()
	data := 0
	for i := 0; i < n; i++ {
		h := &buf[i].Pkt.Header
		if h.Type != packet.TypeData && h.Type != packet.TypeFec {
			continue
		}
		data++
		if p.sending || h.Type != packet.TypeData {
			continue
		}
		key := streamKey{buf[i].Group, h.SrcPort}
		arr := p.arrived[key]
		for int(h.Seq) >= len(arr) {
			arr = append(arr, 0)
		}
		if arr[h.Seq] == 0 {
			arr[h.Seq] = now
		}
		p.arrived[key] = arr
	}
	if p.t.active.Load() {
		p.recvCalls.Add(1)
		p.recvPkts.Add(int64(n))
		p.dataIn.Add(int64(data))
	}
	return n, err
}

func (p *tap) Send(pk *packet.Packet, multicast bool, node packet.NodeID) error {
	return sendOne(p, pk, multicast, node)
}

func (p *tap) Recv() (*packet.Packet, packet.NodeID, error) { return recvOne(p) }

// span is one interval of the span file.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: none
	Name   string  `json:"name"`
	Record string  `json:"record"`
	Start  float64 `json:"start_ms"` // since the run's epoch
	End    float64 `json:"end_ms"`
}

// recordSpans are one record's cut points, ns since epoch; a zero cut
// is one the taps could not supply.
type recordSpans struct {
	key      streamKey
	rcv      int // the receiver tap's id
	index    int64
	write    int64 // Write called
	sent     int64 // last byte's first DATA packet entered the sender tap
	arrived  int64 // that packet first reached the receiver tap
	readDone int64 // ReadFull returned
}

// tracer owns the taps and everything the traced run collects.
type tracer struct {
	epoch  time.Time
	active atomic.Bool

	mu      sync.Mutex
	taps    []*tap
	pending []pendingRecords
	gapMs   []float64 // GapFilled: how long each gap stayed open

	// Counters at the window's edges.
	mem0, mem1   runtime.MemStats
	io0, io1     transport.IOSnapshot
	pool0, pool1 packet.PoolCounters
	goroutines   atomic.Int64 // peak
	stopMonitor  chan struct{}
	monitorDone  chan struct{}
}

// pendingRecords are one reader's window records, joined with the taps'
// tables once the session is closed.
type pendingRecords struct {
	key     streamKey
	rcv     *tap
	records []recordTimes
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newTap(tr transport.Transport, sending bool) *tap {
	p := &tap{
		wrapped: wrap(tr), t: t, sending: sending,
		sent:    make(map[streamKey]*sendTable),
		arrived: make(map[streamKey][]int64),
	}
	t.mu.Lock()
	p.id = len(t.taps)
	t.taps = append(t.taps, p)
	t.mu.Unlock()
	return p
}

// Emit implements trace.Sink for the receivers.
func (t *tracer) Emit(e trace.Event) {
	if e.Kind != trace.GapFilled || !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.gapMs = append(t.gapMs, float64(e.Value)/1e6)
	t.mu.Unlock()
}

func (t *tracer) addRecords(sport uint16, gid transport.GroupID, rcv *tap, records []recordTimes) {
	if len(records) == 0 {
		return
	}
	t.mu.Lock()
	t.pending = append(t.pending, pendingRecords{streamKey{gid, sport}, rcv, records})
	t.mu.Unlock()
}

// windowOpen starts counting: taps, sink, and the process counters.
func (t *tracer) windowOpen() {
	runtime.ReadMemStats(&t.mem0)
	t.io0 = transport.IOStats()
	t.pool0 = packet.PoolStats()
	t.stopMonitor = make(chan struct{})
	t.monitorDone = make(chan struct{})
	go func() {
		defer close(t.monitorDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > t.goroutines.Load() {
				t.goroutines.Store(n)
			}
			select {
			case <-tick.C:
			case <-t.stopMonitor:
				return
			}
		}
	}()
	t.active.Store(true)
}

// windowClose stops counting.
func (t *tracer) windowClose() {
	t.active.Store(false)
	close(t.stopMonitor)
	<-t.monitorDone
	runtime.ReadMemStats(&t.mem1)
	t.io1 = transport.IOStats()
	t.pool1 = packet.PoolStats()
}

// join cuts every window record's delivery time at the taps. Call after
// the session has closed, when the taps' tables are quiet.
func (t *tracer) join() []recordSpans {
	sent := make(map[streamKey]*sendTable)
	for _, p := range t.taps {
		for k, st := range p.sent {
			sent[k] = st
		}
	}
	var out []recordSpans
	for _, pr := range t.pending {
		st := sent[pr.key]
		var arr []int64
		rcv := -1
		if pr.rcv != nil {
			arr, rcv = pr.rcv.arrived[pr.key], pr.rcv.id
		}
		for _, rec := range pr.records {
			rs := recordSpans{key: pr.key, rcv: rcv, index: rec.index, write: rec.stamp, readDone: rec.readEnd}
			if st != nil {
				// The packet carrying the record's last byte is the first
				// whose end offset reaches the record's end.
				end := (rec.index + 1) * recordSize
				seq := sort.Search(len(st.ends), func(i int) bool { return st.ends[i] >= end })
				if seq < len(st.ends) {
					rs.sent = st.sentAt[seq]
					if seq < len(arr) {
						rs.arrived = arr[seq]
					}
				}
			}
			out = append(out, rs)
		}
	}
	return out
}

// spanMeans are the per-record latency spans' means, in ms. A record
// whose cuts are incomplete or out of order (its last packet was
// rebuilt from parity and never crossed the receiver tap, say) adds its
// whole delivery time to unexplained.
type spanMeans struct {
	queue, wire, reassembly, unexplained, delivery float64
	records                                        int
}

func meansOf(recs []recordSpans) spanMeans {
	var m spanMeans
	for _, r := range recs {
		total := float64(r.readDone-r.write) / 1e6
		m.delivery += total
		if r.sent >= r.write && r.arrived >= r.sent && r.readDone >= r.arrived && r.sent > 0 {
			m.queue += float64(r.sent-r.write) / 1e6
			m.wire += float64(r.arrived-r.sent) / 1e6
			m.reassembly += float64(r.readDone-r.arrived) / 1e6
		} else {
			m.unexplained += total
		}
	}
	m.records = len(recs)
	if n := float64(len(recs)); n > 0 {
		m.queue /= n
		m.wire /= n
		m.reassembly /= n
		m.unexplained /= n
		m.delivery /= n
	}
	return m
}

// maxSpanRecords bounds the span file: records are written at an even
// stride so that at most this many appear, four spans each.
const maxSpanRecords = 5000

// traceFile is the JSON written to out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Records  int                `json:"records"`
	Stride   int                `json:"record_stride"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

func writeTraceFile(dir string, w workload, seed uint64, recs []recordSpans, counts map[string]float64) (string, error) {
	stride := 1 + len(recs)/maxSpanRecords
	tf := traceFile{Workload: w.Name, Seed: seed, Records: len(recs), Stride: stride, Counts: counts}
	id := 0
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i := 0; i < len(recs); i += stride {
		r := recs[i]
		name := recordName(r)
		id++
		parent := id
		tf.Spans = append(tf.Spans, span{ID: parent, Name: "delivery", Record: name, Start: ms(r.write), End: ms(r.readDone)})
		if r.sent == 0 || r.arrived == 0 {
			continue
		}
		for _, c := range []struct {
			name       string
			start, end int64
		}{
			{"sender_queue", r.write, r.sent},
			{"wire", r.sent, r.arrived},
			{"receiver_reassembly", r.arrived, r.readDone},
		} {
			id++
			tf.Spans = append(tf.Spans, span{ID: id, Parent: parent, Name: c.name, Record: name, Start: ms(c.start), End: ms(c.end)})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+w.Name+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// recordName identifies a record across its spans: group tag, sender
// port, receiver tap and record number.
func recordName(r recordSpans) string {
	return fmt.Sprintf("g%d/p%d/r%d/k%d", r.key.gid, r.key.sport, r.rcv, r.index)
}
