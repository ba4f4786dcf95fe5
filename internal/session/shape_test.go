package session

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// gapTimes collects the open-to-repair time of every filled gap.
type gapTimes struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *gapTimes) Emit(e trace.Event) {
	if e.Kind == trace.GapFilled {
		s.mu.Lock()
		s.d = append(s.d, time.Duration(e.Value))
		s.mu.Unlock()
	}
}

// The FEC-versus-NAK crossover on the live datapath (session driver,
// send poller, pooled buffers) over in-memory hubs dropping 1% of
// deliveries, 12 flows paced at 2-8 MB/s so timing is the protocol's and
// not CPU contention: the median gap must close at least 2x sooner with
// K=8 parity than by selective NAK, over at least 100 gaps per arm, and
// the parity pipeline (XOR on send, group cache and rebuild on receive)
// may allocate at most 1.2x what the NAK arm does.
func TestFecCrossoverLiveHub(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of lossy transfers")
	}
	const flows, size = 12, 2 << 20
	pattern := make([]byte, size+flows)
	app.FillPattern(pattern, 0)
	// arm returns the sorted gap-recovery times and the objects allocated.
	arm := func(perFlow int, opts ...FlowOption) ([]time.Duration, uint64) {
		var sink gapTimes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess := New(Config{})
		pairs := make([]flowPair, flows)
		for g := range pairs {
			// A hub per flow: its own loss stream, no cross-flow fan-out.
			hub := transport.NewHub(transport.WithLoss(0.01, int64(29+g)))
			sp, rp := groupPorts(g)
			rf, err := sess.OpenReceiver(hub.Endpoint(), receiver.Config{
				LocalPort: rp, RemotePort: sp, RcvBuf: 256 << 10, Trace: &sink,
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{
				LocalPort: sp, RemotePort: rp, SndBuf: 256 << 10, ExpectedReceivers: 1, MinBufRTTs: 1,
				Rate: rate.Config{MinRate: 2e6, MaxRate: 8e6, MSS: 1400},
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			pairs[g] = flowPair{sf, rf}
		}
		transferAll(t, pairs, pattern, perFlow)
		if err := sess.Close(); err != nil {
			t.Errorf("session close: %v", err)
		}
		runtime.ReadMemStats(&after)
		sort.Slice(sink.d, func(i, j int) bool { return sink.d[i] < sink.d[j] })
		return sink.d, after.Mallocs - before.Mallocs
	}
	arm(size / 8) // fill the packet pools so neither arm pays for it
	nak, nakMallocs := arm(size)
	fec, fecMallocs := arm(size, WithFec(FecConfig{Enabled: true, K: 8}))
	if len(nak) < 100 || len(fec) < 100 {
		t.Fatalf("%d NAK-arm and %d FEC-arm gaps filled, want >= 100 each for a stable median", len(nak), len(fec))
	}
	nakP50, fecP50 := nak[len(nak)/2], fec[len(fec)/2]
	t.Logf("gap recovery at 1%% loss: NAK p50 %v over %d gaps, FEC p50 %v p90 %v over %d gaps (want NAK p50 >= 2x FEC p50); objects allocated: NAK %d, FEC %d, %.2fx (want <= 1.2x)",
		nakP50, len(nak), fecP50, fec[len(fec)*9/10], len(fec), nakMallocs, fecMallocs, float64(fecMallocs)/float64(nakMallocs))
	if nakP50 < 2*fecP50 {
		t.Errorf("FEC median recovery %v is not 2x faster than NAK's %v", fecP50, nakP50)
	}
	// Under the race detector sync.Pool drops a quarter of all Puts, so
	// there the count measures the detector, not the parity pipeline.
	if !raceEnabled && float64(fecMallocs) > 1.2*float64(nakMallocs) {
		t.Errorf("FEC arm allocated %d objects, more than 1.2x the NAK arm's %d", fecMallocs, nakMallocs)
	}
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perFlowCost admits n group flows (one sender and one receiver each,
// 32 KiB) over 8+8 shared hub shard endpoints — the in-memory stand-in
// for hrmcd's shard sockets — runs every transfer to completion, and
// returns the process CPU time per flow, the cheapest of three runs.
// CPU time, not wall time: a lone flow's wall time is the driver's wake
// latency, which says nothing about what a flow costs.
func perFlowCost(t *testing.T, n int) time.Duration {
	const shards, size = 8, 32 << 10
	pattern := make([]byte, size+n)
	app.FillPattern(pattern, 0)
	var best time.Duration
	for run := 0; run < 3; run++ {
		runtime.GC() // the last run's garbage is not this run's cost
		start := cpuTime(t)
		hub := transport.NewHub()
		sess := New(Config{})
		var snd, rcv [shards]transport.GroupTransport
		for s := range snd {
			snd[s] = hub.Endpoint().(transport.GroupTransport)
			rcv[s] = hub.Endpoint().(transport.GroupTransport)
		}
		pairs := make([]flowPair, n)
		for g := range pairs {
			addr := fmt.Sprintf("239.50.%d.%d", 1+g/254, 1+g%254)
			gid, err := snd[g%shards].Register(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rcv[g%shards].Join(addr); err != nil {
				t.Fatal(err)
			}
			pairs[g] = openPair(t, sess, snd[g%shards], rcv[g%shards], g, FlowSpec{
				Buf: 128 << 10, MinRateBps: 32e6, MaxRateBps: 1e9, Group: gid,
			})
		}
		transferAll(t, pairs, pattern, size)
		if err := sess.Close(); err != nil {
			t.Errorf("session close: %v", err)
		}
		if d := (cpuTime(t) - start) / time.Duration(n); run == 0 || d < best {
			best = d
		}
	}
	return best
}

// Per-flow cost must stay flat as flows multiply on shared transports:
// a demux or driver with an O(flows) per-packet term fails this. The CPU
// cost of one flow among 1,000 may be at most 1.5x the cost of a lone
// flow, and among 256 at most 2x.
func TestPerFlowCostFlat(t *testing.T) {
	one := perFlowCost(t, 1)
	for _, c := range []struct {
		flows int
		bound float64
	}{{256, 2}, {1000, 1.5}} {
		cost := perFlowCost(t, c.flows)
		t.Logf("%d flows: %v per flow, %.2fx the lone flow's %v (want <= %.1fx)",
			c.flows, cost, float64(cost)/float64(one), one, c.bound)
		// The race detector multiplies the cost of the machines' work
		// about fifteenfold and of the set-up a lone flow mostly consists
		// of far less, so there the ratio is logged, not gated.
		if !raceEnabled && float64(cost) > c.bound*float64(one) {
			t.Errorf("%d flows cost %v each, more than %.1fx the lone flow's %v", c.flows, cost, c.bound, one)
		}
	}
}

// Idle flows cost nothing and busy flows are not swept: 1,000 open,
// joined flow pairs with nothing to send, over 8+8 hub shard endpoints,
// may be woken at most twice per flow per second — a receiver's UPDATE
// period and a sender's backed-off KEEPALIVE are all that is left on the
// clock; the tick loop this driver replaced visited each 100 times — and
// the session's goroutines stay O(transports + pollers).
func TestIdleFlowsCostNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("watches idle flows for several seconds")
	}
	const shards, n, size = 8, 1000, 4 << 10
	pattern := make([]byte, size+n)
	app.FillPattern(pattern, 0)
	before := runtime.NumGoroutine()
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Abort()
	var snd, rcv [shards]transport.GroupTransport
	for s := range snd {
		snd[s] = hub.Endpoint().(transport.GroupTransport)
		rcv[s] = hub.Endpoint().(transport.GroupTransport)
	}
	pairs := make([]flowPair, n)
	for g := range pairs {
		addr := fmt.Sprintf("239.51.%d.%d", 1+g/254, 1+g%254)
		gid, err := snd[g%shards].Register(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rcv[g%shards].Join(addr); err != nil {
			t.Fatal(err)
		}
		pairs[g] = openPair(t, sess, snd[g%shards], rcv[g%shards], g, FlowSpec{Buf: 32 << 10, Group: gid})
	}
	// Join every receiver: one short write each, read to the last byte,
	// streams left open.
	stop := bound(t, "idle flows' first writes", pairs...)
	var wg sync.WaitGroup
	for g, p := range pairs {
		wg.Add(1)
		go func(g int, p flowPair) {
			defer wg.Done()
			if _, err := p.sf.Write(pattern[g : g+size]); err != nil {
				t.Errorf("flow %d: write: %v", g, err)
			}
			if _, err := io.ReadFull(p.rf, make([]byte, size)); err != nil {
				t.Errorf("flow %d: read: %v", g, err)
			}
		}(g, p)
	}
	wg.Wait()
	stop()
	// The 1,000 workers finish exiting after Done, later still on a busy
	// host: count what stays, not what has yet to leave.
	grown := runtime.NumGoroutine() - before
	for deadline := time.Now().Add(time.Second); grown > 2*shards+8 && time.Now().Before(deadline); grown = runtime.NumGoroutine() - before {
		time.Sleep(10 * time.Millisecond)
	}
	if grown > 2*shards+8 {
		t.Errorf("%d idle flow pairs hold %d goroutines, want O(transports + pollers)", n, grown)
	}
	wakeups := func() (total int64) {
		for _, fs := range sess.Snapshot().Flows {
			if fs.Sender != nil {
				total += fs.Sender.Wakeups
				// No tick refreshes an idle flow's gauges; the snapshot does.
				if fs.Sender.RateBps == 0 || fs.Sender.CeilingBps == 0 {
					t.Errorf("flow %d idle: scraped rate %d B/s, ceiling %d B/s", fs.ID, fs.Sender.RateBps, fs.Sender.CeilingBps)
				}
			} else {
				total += fs.Receiver.Wakeups
			}
		}
		return total
	}
	// KEEPALIVEs back off 20 ms → 2 s; let the first second's worth go.
	time.Sleep(1500 * time.Millisecond)
	start, w0 := time.Now(), wakeups()
	time.Sleep(2 * time.Second)
	perFlow := float64(wakeups()-w0) / time.Since(start).Seconds() / (2 * n)
	t.Logf("%d idle flows: %.2f wakeups per flow per second (want <= 2)", 2*n, perFlow)
	if perFlow > 2 {
		t.Errorf("idle flows woken %.2f times per second each, want <= 2", perFlow)
	}
}

// A sender with a known population probes one round trip after it fills
// its window, not ten: the same 1 MiB FlowSpec transfer through 256 KiB
// buffers, once with Receivers: 1 and once with an unknown population,
// arrives bit-exact both times, and the known population's window waits
// on its receiver at most a quarter as long. Both arms run on the same
// host, so its speed cancels out.
func TestKnownPopulationHoldsOneRoundTrip(t *testing.T) {
	const size, buf = 1 << 20, 256 << 10
	pattern := make([]byte, size)
	app.FillPattern(pattern, 0)
	blocked := func(receivers int) int64 {
		sess := New(Config{})
		defer sess.Abort()
		hub := transport.NewHub()
		sp, rp := groupPorts(0)
		rf, err := sess.OpenReceiverFlow(hub.Endpoint(), FlowSpec{Kind: KindReceiver, LocalPort: rp, PeerPort: sp, Buf: buf})
		if err != nil {
			t.Fatal(err)
		}
		sf, err := sess.OpenSenderFlow(hub.Endpoint(), FlowSpec{
			Kind: KindSender, LocalPort: sp, PeerPort: rp, Buf: buf, Receivers: receivers,
			MinRateBps: 32e6, MaxRateBps: 1e9,
		})
		if err != nil {
			t.Fatal(err)
		}
		transferAll(t, []flowPair{{sf, rf}}, pattern, size)
		// Under the flow's lock: the session may still wake the flow.
		return sf.snapshot().Sender.ReleaseBlockedMicros
	}
	known, unknown := blocked(1), blocked(0)
	t.Logf("window blocked on receivers: %d µs with a known population, %d µs without (want <= 1/4)", known, unknown)
	if 4*known > unknown {
		t.Errorf("known population blocked %d µs, more than a quarter of the unknown one's %d µs", known, unknown)
	}
}

// Rule 2 of Section 2 asks for half the rate when what the sender could
// send in WARNBUF = 4 round trips exceeds the empty part of the receive
// window, and the round trip it runs on floors at two quanta. One GRO
// batch of 64 packets is 35 % of a 256 KiB window — past the Warning
// mark — so under a quantum whose horizon holds more than the whole
// buffer at the bulk flow's rate (1 ms: 8 ms x 36 MB/s = 288 KB) every
// batch drew a rate request and the flow sat on MinRate. At the
// session's quantum the same batch draws none; at the paper's jiffy it
// draws one, as it always has.
func TestRule2HorizonFollowsQuantum(t *testing.T) {
	for _, c := range []struct {
		quantum  sim.Time
		controls int64
	}{
		{quantum, 0},
		{kernel.Jiffy, 1},
	} {
		r := receiver.New(receiver.Config{LocalAddr: 1, RcvBuf: 256 << 10, MSS: 1400, Quantum: c.quantum})
		payload := make([]byte, 1400)
		for seq := uint32(0); seq < 64; seq++ {
			r.HandlePacket(sim.Second, &packet.Packet{
				Header:  packet.Header{Type: packet.TypeData, Seq: seq, Length: 1400, RateAdv: 36e6},
				Payload: payload,
			})
		}
		if got := r.Stats().RateRequests; got != c.controls {
			t.Errorf("quantum %v: %d rate requests for one 64-packet batch into an empty window, want %d", c.quantum, got, c.controls)
		}
		if got := r.Stats().UrgentRequests; got != 0 {
			t.Errorf("quantum %v: %d urgent requests, want none", c.quantum, got)
		}
	}
}
