package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/app"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// A workload is one set of inputs. All five share one shape: a closed
// loop in one process, one writer goroutine per sender flow writing
// 8 KiB records as fast as Write admits them, one reader per receiver
// flow reading whole records. An operation is one receiver stream, or
// one transfer in the churn workload.
type workload struct {
	Name string
	// Why is the one line BENCHMARK.json records for the workload.
	Why string

	// instances is how many independent copies of the workload one run
	// measures side by side, each in a process of its own with its own
	// session, sockets, addresses and loss pattern; the run reports the
	// mean over them (see runCopies).
	instances int
	groups    int     // independent sender flows (churn: concurrent groups)
	receivers int     // receivers per group
	paceBps   float64 // fixed sending rate per flow in bytes/s; 0 means minRateBps..maxRateBps
	hub       bool    // in-memory hub instead of UDP sockets
	churn     bool    // back-to-back 1 MiB transfers on shared group shards
	lossPPM   uint64
	fecK      int
	// ungated keeps a workload out of BENCHMARK.json: `run` and `trace`
	// measure it and `compare` prints it, but its goodput and completion
	// times do not hold their bounds on this box (REPEATABILITY.md), so
	// they are reported like layer metrics and gate nothing.
	ungated bool
}

var workloads = []workload{
	{
		Name:      "bulk_1flow_udp",
		Why:       "one lossless flow over loopback UDP multicast: the session tick, token bucket and window release do the waiting while sockets and CPU idle",
		instances: udpInstances, groups: 1, receivers: 1,
	},
	{
		Name:      "multiplex_64flows_hub",
		Why:       "64 flows paced at 3 MB/s each in one session over the in-memory hub: most packets per second, no sockets; the machines, session staging and demux under a fixed load",
		instances: 1, groups: 64, receivers: 1, hub: true, paceBps: hubPaceBps,
	},
	{
		Name:      "lossy_4x4rcv_udp",
		Why:       "4 groups x 4 receivers over UDP with 1% deterministic loss, NAK-only: gap detection, NAK, retransmit and release gated on the slowest member",
		instances: udpInstances, groups: 4, receivers: 4, lossPPM: lossPPM,
		ungated: true,
	},
	{
		Name:      "lossy_fec_4x4rcv_udp",
		Why:       "the same groups, loss and seed with FEC K=8: parity rebuild instead of a NAK round trip, bought with wire efficiency",
		instances: udpInstances, groups: 4, receivers: 4, lossPPM: lossPPM, fecK: 8,
		ungated: true,
	},
	{
		Name:      "churn_1m_4grp_udp",
		Why:       "back-to-back 1 MiB transfers on fresh flows over shared group-transport shards: join, slow start, FIN drain and detach, as hrmcd runs them",
		instances: udpInstances, groups: 4, receivers: 1, churn: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Flow parameters common to every workload.
const (
	recordSize = 8 << 10 // one Write: 8-byte write stamp + pattern body
	stampSize  = 8
	bodySize   = recordSize - stampSize
	// refRecords distinct bodies cycle through a stream, so a record that
	// is lost, repeated or shifted fails the comparison.
	refRecords = 128

	flowBuf    = 256 << 10 // SndBuf = RcvBuf
	flowMSS    = 1400
	minRateBps = 32e6
	maxRateBps = 1e9
	// hubPaceBps paces each of the 64 hub flows: 192 MB/s in all, seven
	// tenths of what the two cores carried in their slowest hour.
	// Unpaced, 64 flows saturate the cores and every metric of the
	// workload reads the shared host's speed of the hour (goodput
	// 270-510 MB/s between runs of one commit) instead of the stack's.
	hubPaceBps = 3e6
	// udpInstances copies of a UDP workload run side by side. One copy
	// uses a twentieth of the two cores and waits on ticks the rest of the
	// time; what it delivers in a window ranges over 10 to 20 % between
	// runs of one commit, and four independent copies halve that.
	udpInstances = 4
	// maxGroups is the most groups a UDP workload has: instance i takes
	// the addresses and loss patterns i*maxGroups onwards.
	maxGroups    = 4
	transferSize = 1 << 20 // churn: bytes per transfer
	churnShards  = 2       // churn: shards per side

	defaultWarmup = 2 * time.Second
	// abortAfter is the hard deadline past the end of the window: the
	// session is aborted and whatever has not finished counts as failed.
	abortAfter = 30 * time.Second
)

// errUnavailable marks a run that could not start because the host has
// no loopback multicast (or too few memberships); tests skip on it.
var errUnavailable = errors.New("loopback multicast unavailable")

// runConfig is one run of one workload.
type runConfig struct {
	Seed   uint64
	Window time.Duration
	Warmup time.Duration
	// Tracer, when set, makes this the traced run: taps wrap every
	// transport handed to the session and a trace sink is attached to
	// every receiver. End-to-end runs leave it nil.
	Tracer *tracer

	// Instance is which copy of the workload this is, and Salt the pid of
	// the process that started the run: together with the seed they pick
	// addresses and ports, so that neither the copies of one run nor
	// consecutive or concurrent runs hear each other's stragglers.
	Instance int
	Salt     uint64
}

// measurement is what one run observed, before any metric is derived.
type measurement struct {
	Ops, Failed int
	Errors      []string // first few failure causes

	OpenRaw    time.Duration // open + all members joined
	Setup      time.Duration // OpenRaw + warm-up: start until the window opens
	Elapsed    time.Duration // window open until the last receiver's EOF
	CloseDrain time.Duration // mean: last Write returned until everything closed
	CPUUser    time.Duration // over Elapsed
	CPUSys     time.Duration

	Bytes      int64     // verified payload bytes delivered, all receivers
	Delivery   []float64 // ms, Write call to ReadFull return, window records
	Completion []float64 // ms, one per MiB completed (see completion_mean_ms)

	Sender   stats.Sender   // summed over sender flows, window only
	Receiver stats.Receiver // summed over receiver flows, window only
	Dropped  int64          // injected drops, whole run
	Offered  int64          // DATA+FEC packets offered to the injector
}

func (m *measurement) cpu() time.Duration { return m.CPUUser + m.CPUSys }

// rig is one opened workload: session, transports, flows and the clock
// every stamp is taken on.
type rig struct {
	w   workload
	cfg runConfig

	epoch time.Time
	ref   []byte // refRecords pattern bodies, checked by app.VerifyPattern

	sess    *session.Session
	closers []io.Closer
	groups  []*streamGroup
	lossy   []*lossyTransport

	// churn
	sndShards, rcvShards []transport.Transport
	gids                 []transport.GroupID

	// openAt and closeAt bound the measured window, in ns since epoch;
	// far in the future until every member has joined.
	openAt, closeAt atomic.Int64

	mu   sync.Mutex
	errs []string
	churnTotals
}

// streamGroup is one sender flow and its receivers.
type streamGroup struct {
	idx   int
	sport uint16
	sf    *session.SenderFlow
	rfs   []*session.ReceiverFlow
	taps  []*tap // receiver taps, traced runs only

	written   int64 // bytes the writer handed to Write
	lastWrite int64 // ns since epoch when the last Write returned
	closed    int64 // ns since epoch when Close returned
}

func (r *rig) since() int64 { return int64(time.Since(r.epoch)) }

func (r *rig) fail(format string, a ...any) {
	r.mu.Lock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
	r.mu.Unlock()
}

// newReference builds the pattern bodies once and checks them against
// app.VerifyPattern; readers then compare each delivered body with its
// reference, which is a memcmp instead of a hash per byte. (Verifying
// every byte with VerifyPattern costs 0.85 ms/MB on this box — a
// quarter of the whole stack's CPU on the 64-flow workload.)
func newReference() ([]byte, error) {
	ref := make([]byte, refRecords*bodySize)
	app.FillPattern(ref, 0)
	if i := app.VerifyPattern(ref, 0); i >= 0 {
		return nil, fmt.Errorf("reference pattern differs from app.VerifyPattern at byte %d", i)
	}
	return ref, nil
}

func (r *rig) body(k int64) []byte {
	off := (k % refRecords) * bodySize
	return r.ref[off : off+bodySize]
}

// groupAddr derives group g's multicast address and UDP port. Every
// group gets its own port: Linux hands same-port multicast to sockets
// regardless of which group they joined.
func (r *rig) groupAddr(g int) (ip string, port int) {
	h := mix64(r.cfg.Seed ^ mix64(r.cfg.Salt))
	n := r.cfg.Instance*maxGroups + g // distinct across the run's instances
	ip = fmt.Sprintf("239.%d.%d.%d", 1+h%250, (h>>8)%256, 1+n)
	port = 10000 + int((h>>16)%20000) + n // below the ephemeral range
	return ip, port
}

func (r *rig) track(c io.Closer) { r.closers = append(r.closers, c) }

// tapped wraps tr with the run's tap in a traced run and returns it
// unchanged otherwise.
func (r *rig) tapped(tr transport.Transport, sending bool) (transport.Transport, *tap) {
	if r.cfg.Tracer == nil {
		return tr, nil
	}
	t := r.cfg.Tracer.newTap(tr, sending)
	return t, t
}

func (r *rig) flowOptions() []session.FlowOption {
	if r.w.fecK == 0 {
		return nil
	}
	return []session.FlowOption{session.WithFec(session.FecConfig{Enabled: true, K: r.w.fecK})}
}

// open builds the session, transports and flows.
func (r *rig) open() error {
	r.sess = session.New(session.Config{})
	switch {
	case r.w.churn:
		return r.openShards()
	case r.w.hub:
		return r.openStreams(nil)
	default:
		lo, err := net.InterfaceByName("lo")
		if err != nil {
			return fmt.Errorf("%w: %v", errUnavailable, err)
		}
		return r.openStreams(lo)
	}
}

// openStreams opens every group's receivers, then its sender, over hub
// endpoints (lo == nil) or per-flow UDP transports.
func (r *rig) openStreams(lo *net.Interface) error {
	hub := transport.NewHub()
	rc := rate.Config{MinRate: minRateBps, MaxRate: maxRateBps, MSS: flowMSS}
	if r.w.paceBps > 0 {
		rc.MinRate, rc.MaxRate = r.w.paceBps, r.w.paceBps
	}
	for g := 0; g < r.w.groups; g++ {
		sg := &streamGroup{idx: g, sport: uint16(100 + 2*g)}
		rport := sg.sport + 1
		ip, port := r.groupAddr(g)
		addr := fmt.Sprintf("%s:%d", ip, port)
		for ri := 0; ri < r.w.receivers; ri++ {
			var tr transport.Transport
			if lo == nil {
				tr = hub.Endpoint()
			} else {
				rt, err := udpmcast.NewReceiverTransport(addr, lo)
				if err != nil {
					return fmt.Errorf("%w: %v", errUnavailable, err)
				}
				tr = rt
			}
			r.track(tr)
			if r.w.lossPPM > 0 {
				l := newLossy(tr, r.cfg.Seed, r.cfg.Instance*maxGroups+g, ri, r.w.lossPPM)
				r.lossy = append(r.lossy, l)
				tr = l
			}
			tr, tp := r.tapped(tr, false)
			rcfg := receiver.Config{LocalPort: rport, RemotePort: sg.sport, RcvBuf: flowBuf, MSS: flowMSS}
			if r.cfg.Tracer != nil {
				rcfg.Trace = r.cfg.Tracer
			}
			rf, err := r.sess.OpenReceiver(tr, rcfg, r.flowOptions()...)
			if err != nil {
				return err
			}
			sg.rfs = append(sg.rfs, rf)
			sg.taps = append(sg.taps, tp)
		}
		var tr transport.Transport
		if lo == nil {
			tr = hub.Endpoint()
		} else {
			st, err := udpmcast.NewSenderTransport(addr, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
			if err != nil {
				return fmt.Errorf("%w: %v", errUnavailable, err)
			}
			tr = st
		}
		r.track(tr)
		tr, _ = r.tapped(tr, true)
		sf, err := r.sess.OpenSender(tr, sender.Config{
			LocalPort: sg.sport, RemotePort: rport, SndBuf: flowBuf, MSS: flowMSS,
			ExpectedReceivers: r.w.receivers, MinBufRTTs: 1, Rate: rc,
		}, r.flowOptions()...)
		if err != nil {
			return err
		}
		sg.sf = sf
		r.groups = append(r.groups, sg)
	}
	return nil
}

// openShards opens the churn workload's long-lived group transports:
// churnShards on the sending side and as many on the receiving side,
// every group registered on one and joined on the other. Flows come and
// go per transfer; the shards and their memberships stay, as in hrmcd.
func (r *rig) openShards() error {
	_, port := r.groupAddr(0)
	for s := 0; s < churnShards; s++ {
		for _, side := range []*[]transport.Transport{&r.sndShards, &r.rcvShards} {
			gt, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: port + s, Loopback: true})
			if err != nil {
				return fmt.Errorf("%w: %v", errUnavailable, err)
			}
			r.track(gt)
			tr, _ := r.tapped(gt, side == &r.sndShards)
			*side = append(*side, tr)
		}
	}
	for g := 0; g < r.w.groups; g++ {
		ip, _ := r.groupAddr(g)
		s := g % churnShards
		gid, err := underlying(r.sndShards[s]).(transport.GroupTransport).Register(ip)
		if err != nil {
			return fmt.Errorf("%w: %v", errUnavailable, err)
		}
		if _, err := underlying(r.rcvShards[s]).(transport.GroupTransport).Join(ip); err != nil {
			return fmt.Errorf("%w: %v", errUnavailable, err)
		}
		r.gids = append(r.gids, gid)
	}
	return nil
}

// underlying strips the benchmark's tap, if any.
func underlying(tr transport.Transport) transport.Transport {
	if t, ok := tr.(*tap); ok {
		return t.tr
	}
	return tr
}

// teardown closes whatever open left behind. The session closes the
// transports it bound; closing them again is harmless, and the ones a
// failed open never bound are closed here only.
func (r *rig) teardown(abort bool) error {
	var err error
	if abort {
		r.sess.Abort()
	} else {
		err = r.sess.Close()
	}
	for _, c := range r.closers {
		_ = c.Close()
	}
	return err
}

// opResult is one finished operation.
type opResult struct {
	ok       bool
	group    int
	total    int64     // bytes read, whole stream
	bytes    int64     // window payload bytes
	delivery []float64 // ms, window records
	perMiB   []float64 // ms, each successive MiB of window records
	doneAt   int64     // ns since epoch at EOF
	records  []recordTimes
}

// recordTimes is what the reader knows about one window record; the
// traced run joins it with the taps' tables to cut the delivery time
// into spans.
type recordTimes struct {
	index          int64 // record number in its stream
	stamp, readEnd int64 // ns since epoch
}

// readStream reads whole records until EOF, checks every body against
// the reference and times the records stamped inside the window.
func (r *rig) readStream(rd io.Reader, label string) opResult {
	var res opResult
	rec := make([]byte, recordSize)
	openAt, closeAt := r.openAt.Load(), r.closeAt.Load()
	var prev, mibStart int64 // when the previous record was read; when the current MiB began
	for k := int64(0); ; k++ {
		_, err := io.ReadFull(rd, rec)
		now := r.since()
		if err == io.EOF {
			res.ok = true
			res.doneAt = now
			return res
		}
		if err != nil {
			r.fail("%s: read record %d: %v", label, k, err)
			res.doneAt = now
			return res
		}
		if !bytes.Equal(rec[stampSize:], r.body(k)) {
			r.fail("%s: record %d differs from the pattern", label, k)
			res.doneAt = now
			return res
		}
		res.total += recordSize
		stamp := int64(binary.LittleEndian.Uint64(rec))
		if openAt == math.MaxInt64 {
			openAt, closeAt = r.openAt.Load(), r.closeAt.Load()
		}
		if stamp >= openAt && stamp < closeAt {
			if res.bytes == 0 {
				mibStart = prev
			}
			res.bytes += recordSize
			res.delivery = append(res.delivery, float64(now-stamp)/1e6)
			if res.bytes%transferSize == 0 {
				res.perMiB = append(res.perMiB, float64(now-mibStart)/1e6)
				mibStart = now
			}
			if r.cfg.Tracer != nil {
				res.records = append(res.records, recordTimes{k, stamp, now})
			}
		}
		prev = now
	}
}

// writeStream writes records until stop says so (or n records when
// n > 0), then closes the flow, which blocks until every receiver holds
// the stream. It returns the bytes written and when the last Write
// returned.
func (r *rig) writeStream(sf *session.SenderFlow, n int64, label string) (written, lastWrite int64, ok bool) {
	rec := make([]byte, recordSize)
	ok = true
	for k := int64(0); n == 0 || k < n; k++ {
		now := r.since()
		if n == 0 && now >= r.closeAt.Load() {
			break
		}
		binary.LittleEndian.PutUint64(rec, uint64(now))
		copy(rec[stampSize:], r.body(k))
		if _, err := sf.Write(rec); err != nil {
			r.fail("%s: write record %d: %v", label, k, err)
			ok = false
			break
		}
		written += recordSize
	}
	lastWrite = r.since()
	if err := sf.Close(); err != nil {
		r.fail("%s: close: %v", label, err)
		ok = false
	}
	return written, lastWrite, ok
}

// waitJoined blocks until every sender flow knows all its receivers.
func (r *rig) waitJoined(deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for _, g := range r.groups {
		for g.sf.Members() < r.w.receivers {
			if time.Now().After(limit) {
				return fmt.Errorf("group %d: %d of %d receivers joined after %v", g.idx, g.sf.Members(), r.w.receivers, deadline)
			}
			time.Sleep(250 * time.Microsecond)
		}
	}
	return nil
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// runWorkload runs one copy of w and returns what it observed.
func runWorkload(w workload, cfg runConfig) (*measurement, error) {
	if cfg.Warmup <= 0 {
		cfg.Warmup = defaultWarmup
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, cfg: cfg, ref: ref, epoch: time.Now()}
	r.openAt.Store(math.MaxInt64)
	r.closeAt.Store(math.MaxInt64)
	if cfg.Tracer != nil {
		cfg.Tracer.epoch = r.epoch
	}
	return r.run()
}

// run opens the rig, starts the streams, runs the warm-up and the
// measured window and returns the measurement.
func (r *rig) run() (*measurement, error) {
	if err := r.open(); err != nil {
		_ = r.teardown(true)
		return nil, err
	}
	var wg sync.WaitGroup
	var results []opResult
	var resMu sync.Mutex
	collect := func(res opResult) {
		resMu.Lock()
		results = append(results, res)
		resMu.Unlock()
	}
	if r.w.churn {
		for g := range r.gids {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r.churnLoop(g, collect)
			}(g)
		}
	} else {
		for _, g := range r.groups {
			for ri, rf := range g.rfs {
				wg.Add(1)
				go func(g *streamGroup, ri int, rf *session.ReceiverFlow) {
					defer wg.Done()
					res := r.readStream(rf, fmt.Sprintf("group %d receiver %d", g.idx, ri))
					if r.cfg.Tracer != nil {
						r.cfg.Tracer.addRecords(g.sport, 0, g.taps[ri], res.records)
						res.records = nil
					}
					res.group = g.idx
					collect(res)
				}(g, ri, rf)
			}
			wg.Add(1)
			go func(g *streamGroup) {
				defer wg.Done()
				g.written, g.lastWrite, _ = r.writeStream(g.sf, 0, fmt.Sprintf("group %d", g.idx))
				g.closed = r.since()
			}(g)
		}
	}
	if err := r.waitJoined(10 * time.Second); err != nil {
		_ = r.teardown(true)
		wg.Wait()
		return nil, err
	}
	joined := r.since()
	openAt := joined + int64(r.cfg.Warmup)
	closeAt := openAt + int64(r.cfg.Window)
	r.closeAt.Store(closeAt)
	r.openAt.Store(openAt)
	abort := time.AfterFunc(time.Duration(closeAt-joined)+abortAfter, func() {
		r.fail("hard deadline: session aborted %v after the window", abortAfter)
		r.sess.Abort()
	})
	defer abort.Stop()

	time.Sleep(time.Duration(openAt - r.since()))
	before := r.sess.Snapshot().Total
	user0, sys0 := rusage()
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.windowOpen()
	}
	wg.Wait()
	user1, sys1 := rusage()
	after := r.sess.Snapshot().Total

	m := &measurement{
		OpenRaw: time.Duration(joined), Setup: time.Duration(openAt),
		CPUUser: user1 - user0, CPUSys: sys1 - sys0,
	}
	var lastDone int64
	for _, res := range results {
		m.Ops++
		// EOF at a record boundary, every body equal to the pattern, and
		// as many bytes read as written: the whole stream, bit for bit.
		if !r.w.churn && res.ok && res.total != r.groups[res.group].written {
			r.fail("group %d: a receiver read %d bytes of %d written", res.group, res.total, r.groups[res.group].written)
			res.ok = false
		}
		if !res.ok {
			m.Failed++
		}
		m.Bytes += res.bytes
		m.Delivery = append(m.Delivery, res.delivery...)
		m.Completion = append(m.Completion, res.perMiB...)
		if res.doneAt > lastDone {
			lastDone = res.doneAt
		}
	}
	if r.w.churn {
		m.Sender, m.Receiver = r.churnStats.Sender, r.churnStats.Receiver
		m.Completion = r.churnCompletion
		m.CloseDrain = time.Duration(mean(r.churnDrain))
	} else {
		fill := after.Receiver.MaxFillPermille
		subInt64(&after.Sender, &before.Sender)
		subInt64(&after.Receiver, &before.Receiver)
		after.Receiver.MaxFillPermille = fill
		m.Sender, m.Receiver = after.Sender, after.Receiver
		var drain []float64
		for _, g := range r.groups {
			drain = append(drain, float64(g.closed-g.lastWrite))
		}
		m.CloseDrain = time.Duration(mean(drain))
	}
	m.Elapsed = time.Duration(lastDone - openAt)
	for _, l := range r.lossy {
		m.Dropped += l.dropped.Load()
		m.Offered += l.seen.Load()
	}
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.windowClose()
	}
	if err := r.teardown(false); err != nil {
		r.fail("session close: %v", err)
		m.Failed = m.Ops
	}
	m.Errors = r.errs
	if m.Ops == 0 || m.Bytes == 0 {
		return m, fmt.Errorf("%s: nothing delivered inside the window: %v", r.w.Name, r.errs)
	}
	return m, nil
}

// subInt64 subtracts every int64 field of *b from *a; both point to the
// same struct type. The gauges among the counters (rates, window fill)
// come out meaningless and are not read afterwards, except
// Receiver.MaxFillPermille, which the caller restores.
func subInt64(a, b any) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() == reflect.Int64 {
			av.Field(i).SetInt(av.Field(i).Int() - bv.Field(i).Int())
		}
	}
}

// churnTotals is what the churn group loops add up under rig.mu, from
// transfers that started inside the window.
type churnTotals struct {
	churnStats      stats.Aggregate
	churnCompletion []float64
	churnDrain      []float64
}

// churnLoop runs group g's back-to-back transfers until the window
// closes. Every transfer opens a fresh sender/receiver flow pair on the
// group's shards, moves transferSize bytes, closes both and detaches
// them. Transfers that start inside the window are measured.
func (r *rig) churnLoop(g int, collect func(opResult)) {
	snd, rcv := r.sndShards[g%churnShards], r.rcvShards[g%churnShards]
	gid := r.gids[g]
	for n := 0; ; n++ {
		start := r.since()
		if start >= r.closeAt.Load() {
			return
		}
		// Fresh header ports per transfer keep a finished transfer's
		// stragglers out of the next one's flows.
		sport := uint16(1024 + (g*8192+2*n)%60000)
		label := fmt.Sprintf("group %d transfer %d", g, n)
		rf, err := r.sess.OpenReceiverFlow(rcv, session.FlowSpec{
			Kind: session.KindReceiver, LocalPort: sport + 1, PeerPort: sport,
			Buf: flowBuf, Group: gid, Fec: session.FecConfig{},
		})
		if err != nil {
			r.fail("%s: open receiver: %v", label, err)
			collect(opResult{doneAt: r.since()})
			return
		}
		sf, err := r.sess.OpenSenderFlow(snd, session.FlowSpec{
			Kind: session.KindSender, LocalPort: sport, PeerPort: sport + 1,
			Buf: flowBuf, Receivers: 1, MinRateBps: minRateBps, MaxRateBps: maxRateBps, Group: gid,
		})
		if err != nil {
			rf.Detach()
			r.fail("%s: open sender: %v", label, err)
			collect(opResult{doneAt: r.since()})
			return
		}
		done := make(chan opResult, 1)
		go func() { done <- r.readStream(rf, label) }()
		_, lastWrite, wrote := r.writeStream(sf, transferSize/recordSize, label)
		res := <-done
		_ = rf.Close()
		ss, rs := sf.Stats().Snapshot(), rf.Stats().Snapshot()
		sf.Detach()
		rf.Detach()
		end := r.since()
		res.ok = res.ok && wrote && res.total == transferSize
		res.doneAt = end
		inWindow := start >= r.openAt.Load()
		if r.cfg.Tracer != nil && inWindow {
			r.cfg.Tracer.addRecords(sport, gid, underlyingTap(rcv), res.records)
		}
		res.records = nil
		if !res.ok {
			collect(res)
			return
		}
		if !inWindow {
			continue
		}
		// A transfer that starts inside the window counts whole: the clock
		// runs until the last one has finished.
		res.bytes = res.total
		r.mu.Lock()
		r.churnStats.AddSender(&ss)
		r.churnStats.AddReceiver(&rs)
		r.churnCompletion = append(r.churnCompletion, float64(end-start)/1e6)
		r.churnDrain = append(r.churnDrain, float64(end-lastWrite))
		r.mu.Unlock()
		collect(res)
	}
}

func underlyingTap(tr transport.Transport) *tap {
	t, _ := tr.(*tap)
	return t
}
