package session

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/sim"
	"repro/internal/transport"
)

// groupPorts returns the port pair for test group g: the sender binds
// sp (receivers' RemotePort), receivers bind rp (sender's RemotePort).
func groupPorts(g int) (sp, rp uint16) {
	return uint16(100 + 2*g), uint16(101 + 2*g)
}

// fastRate keeps test transfers short: slow start begins at 1 MB/s
// instead of the 140 KB/s production floor.
func fastRate() rate.Config {
	return rate.Config{MinRate: 1e6, MaxRate: 64e6, MSS: 1400}
}

// flowPair is one sender flow and the receiver flow it feeds.
type flowPair struct {
	sf *SenderFlow
	rf *ReceiverFlow
}

// openPair opens flow g's receiver on rtr and the sender feeding it on
// str, both from sp with the kinds, the ports and the one expected
// receiver filled in; sp.Buf sizes both windows.
func openPair(t *testing.T, sess *Session, str, rtr transport.Transport, g int, sp FlowSpec) flowPair {
	t.Helper()
	sp.Kind, sp.Receivers = KindSender, 1
	sp.LocalPort, sp.PeerPort = groupPorts(g)
	rs := sp
	rs.Kind, rs.LocalPort, rs.PeerPort = KindReceiver, sp.PeerPort, sp.LocalPort
	rf, err := sess.OpenReceiverFlow(rtr, rs)
	if err != nil {
		t.Fatalf("OpenReceiverFlow g%d: %v", g, err)
	}
	sf, err := sess.OpenSenderFlow(str, sp)
	if err != nil {
		t.Fatalf("OpenSenderFlow g%d: %v", g, err)
	}
	return flowPair{sf, rf}
}

// transferTimeout bounds each transfer a test moves, so a flow-control
// or release regression — a rate rule that holds too long, a window that
// never frees — fails the test that moved the stream, naming the bytes
// delivered, instead of hanging the package until the binary's timeout.
// The slowest transfer here takes about a second under the race
// detector.
const transferTimeout = 30 * time.Second

// bound arms the deadline of one transfer over pairs; either flow of a
// pair may be nil. Unless the returned stop runs first, at
// transferTimeout it fails t with the bytes moved by each pair not yet
// done (the first eight), then closes the receivers — ending their Reads
// and, by their LEAVE, the senders' wait on them — and aborts the
// senders, ending their Writes and Closes. The test's end stops it too.
func bound(t *testing.T, what string, pairs ...flowPair) (stop func() bool) {
	timer := time.AfterFunc(transferTimeout, func() {
		shown := 0
		for i, p := range pairs {
			var sent, delivered int64
			done := true
			if p.sf != nil {
				fs := p.sf.snapshot()
				sent, done = fs.Sender.BytesSent, fs.Done
			}
			if p.rf != nil {
				fs := p.rf.snapshot()
				delivered, done = fs.Receiver.BytesDelivered, done && fs.Done
			}
			if done || shown == 8 {
				continue
			}
			shown++
			t.Errorf("%s: flow %d of %d not done after %v: %d bytes sent, %d delivered",
				what, i, len(pairs), transferTimeout, sent, delivered)
		}
		for _, p := range pairs {
			if p.rf != nil {
				p.rf.Close()
			}
			if p.sf != nil {
				p.sf.Abort()
			}
		}
	})
	t.Cleanup(func() { timer.Stop() })
	return timer.Stop
}

// transferAll moves size bytes over every pair at once and checks each
// receiver got its own stream bit-exact. Flow g sends
// pattern[g:g+size], so no two flows carry the same bytes.
func transferAll(t *testing.T, pairs []flowPair, pattern []byte, size int) {
	stop := bound(t, "transferAll", pairs...)
	var wg sync.WaitGroup
	for g, p := range pairs {
		data := pattern[g : g+size]
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			total := 0
			for {
				n, err := p.rf.Read(buf)
				if !bytes.Equal(buf[:n], data[total:total+n]) || (err != nil && err != io.EOF) {
					t.Errorf("flow %d: corrupt bytes or read error %v after offset %d", g, err, total)
					return
				}
				total += n
				if err == io.EOF {
					break
				}
			}
			if total != size {
				t.Errorf("flow %d: delivered %d bytes, want %d", g, total, size)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := p.sf.Write(data); err != nil {
				t.Errorf("flow %d write: %v", g, err)
			}
			if err := p.sf.Close(); err != nil {
				t.Errorf("flow %d close: %v", g, err)
			}
		}()
	}
	wg.Wait()
	if !stop() {
		t.FailNow() // the deadline passed: a later transfer would only wait again
	}
}

// A live sender holds a packet one round trip before it probes when it
// runs H-RMC for a known population and names no hold itself; otherwise
// the machine's default (the paper's ten) or the caller's value stands.
// Every live sender gets the driver's quantum.
func TestLiveSenderStamp(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  sender.Config
		want int
	}{
		{"hrmc known unset", sender.Config{ExpectedReceivers: 2}, 1},
		{"explicit kept", sender.Config{ExpectedReceivers: 2, MinBufRTTs: 4}, 4},
		{"unknown population", sender.Config{}, 0},
		{"rmc", sender.Config{Mode: sender.RMC, ExpectedReceivers: 2}, 0},
	} {
		got := liveSender(c.cfg)
		if got.MinBufRTTs != c.want || got.Rate.Quantum != quantum {
			t.Errorf("%s: MinBufRTTs %d, Quantum %v; want %d, %v", c.name, got.MinBufRTTs, got.Rate.Quantum, c.want, quantum)
		}
	}
}

// TestSessionMultiplexStress runs 12 concurrent flows — 4 groups of one
// sender and two receivers — through one lossy in-memory hub, all
// driven by one session tick loop, and asserts bit-exact delivery on
// every flow plus coherent aggregate counters.
func TestSessionMultiplexStress(t *testing.T) {
	const (
		groups      = 4
		rcvPerGroup = 2
		size        = 32 << 10
	)
	hub := transport.NewHub(transport.WithLoss(0.01, 7), transport.WithDelay(time.Millisecond))
	sess := New(Config{})
	defer sess.Close()

	var wg sync.WaitGroup
	var flows []flowPair
	for g := 0; g < groups; g++ {
		sp, rp := groupPorts(g)
		data := make([]byte, size)
		app.FillPattern(data, int64(g)<<20) // distinct stream per group
		for i := 0; i < rcvPerGroup; i++ {
			rf, err := sess.OpenReceiverFlow(hub.Endpoint(), FlowSpec{
				Kind: KindReceiver, Label: fmt.Sprintf("g%d-rcv%d", g, i),
				LocalPort: rp, PeerPort: sp, Buf: 64 << 10,
			})
			if err != nil {
				t.Fatalf("OpenReceiver g%d: %v", g, err)
			}
			flows = append(flows, flowPair{rf: rf})
			wg.Add(1)
			go func(g, i int, rf *ReceiverFlow) {
				defer wg.Done()
				got, err := io.ReadAll(rf)
				if err != nil {
					t.Errorf("group %d receiver %d: %v", g, i, err)
				}
				if !bytes.Equal(got, data) {
					t.Errorf("group %d receiver %d: got %d bytes, want %d (equal=%v)",
						g, i, len(got), len(data), bytes.Equal(got, data))
				}
			}(g, i, rf)
		}
		sf, err := sess.OpenSenderFlow(hub.Endpoint(), FlowSpec{
			Kind: KindSender, Label: fmt.Sprintf("g%d-snd", g),
			LocalPort: sp, PeerPort: rp, Buf: 64 << 10, Receivers: rcvPerGroup,
			MinRateBps: 1e6, MaxRateBps: 64e6,
		})
		if err != nil {
			t.Fatalf("OpenSender g%d: %v", g, err)
		}
		flows = append(flows, flowPair{sf: sf})
		wg.Add(1)
		go func(g int, sf *SenderFlow) {
			defer wg.Done()
			if _, err := sf.Write(data); err != nil {
				t.Errorf("group %d sender write: %v", g, err)
			}
			if err := sf.Close(); err != nil {
				t.Errorf("group %d sender close: %v", g, err)
			}
		}(g, sf)
	}

	stop := bound(t, "multiplex stress", flows...)
	// A mid-flight snapshot exercises the locking under the race
	// detector while every flow is active.
	time.Sleep(30 * time.Millisecond)
	_ = sess.Snapshot()

	wg.Wait()
	stop()
	snap := sess.Snapshot()
	if len(snap.Flows) != groups*(1+rcvPerGroup) {
		t.Errorf("snapshot has %d flows, want %d", len(snap.Flows), groups*(1+rcvPerGroup))
	}
	if snap.Total.SenderFlows != groups || snap.Total.ReceiverFlows != groups*rcvPerGroup {
		t.Errorf("aggregate flow counts = %d/%d, want %d/%d",
			snap.Total.SenderFlows, snap.Total.ReceiverFlows, groups, groups*rcvPerGroup)
	}
	if want := int64(groups * size); snap.Total.Sender.BytesSent != want {
		t.Errorf("aggregate BytesSent = %d, want %d", snap.Total.Sender.BytesSent, want)
	}
	if want := int64(groups * rcvPerGroup * size); snap.Total.Receiver.BytesDelivered != want {
		t.Errorf("aggregate BytesDelivered = %d, want %d", snap.Total.Receiver.BytesDelivered, want)
	}
	// A receiver flow is Done only once its LEAVE is acknowledged — a
	// round trip that completes after the reader's EOF and the sender's
	// Close return, so give the handshake a bounded moment to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		allDone := true
		for _, fs := range snap.Flows {
			if !fs.Done {
				allDone = false
			}
		}
		if allDone || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
		snap = sess.Snapshot()
	}
	for _, fs := range snap.Flows {
		if !fs.Done {
			t.Errorf("flow %d (%s) not done at end of transfer", fs.ID, fs.Label)
		}
	}
}

// TestSessionBudgetGovernor runs four senders under a 2 MB/s aggregate
// budget and asserts the measured aggregate wire rate stays at or
// under it (with token-bucket burst slack).
func TestSessionBudgetGovernor(t *testing.T) {
	const (
		flows  = 4
		size   = 96 << 10
		budget = 2e6 // bytes/second aggregate
	)
	hub := transport.NewHub()
	sess := New(Config{Budget: budget})
	defer sess.Close()

	var wg sync.WaitGroup
	var pairs []flowPair
	start := time.Now()
	for g := 0; g < flows; g++ {
		sp, rp := groupPorts(g)
		data := make([]byte, size)
		app.FillPattern(data, int64(g)<<20)
		rf, err := sess.OpenReceiver(hub.Endpoint(), receiver.Config{
			LocalPort: rp, RemotePort: sp, RcvBuf: 64 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := io.ReadAll(rf)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("group %d delivery failed: err=%v equal=%v", g, err, bytes.Equal(got, data))
			}
		}(g)
		sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{
			LocalPort: sp, RemotePort: rp, SndBuf: 64 << 10,
			ExpectedReceivers: 1,
			Rate:              rate.Config{MinRate: 100e3, MaxRate: 64e6, MSS: 1400},
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, flowPair{sf, rf})
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := sf.Write(data); err != nil {
				t.Errorf("group %d write: %v", g, err)
			}
			if err := sf.Close(); err != nil {
				t.Errorf("group %d close: %v", g, err)
			}
		}(g)
	}
	stop := bound(t, "budget governor", pairs...)
	wg.Wait()
	stop()
	elapsed := time.Since(start)

	snap := sess.Snapshot()
	agg := &snap.Total.Sender
	wireBytes := agg.BytesSent + agg.RetransBytes + 20*(agg.PacketsSent+agg.Retransmissions)
	measured := float64(wireBytes) / elapsed.Seconds()
	// 30% slack absorbs token-bucket bursts and tick quantization; the
	// point is that four unconstrained 64 MB/s flows were held near the
	// shared 2 MB/s line.
	if measured > budget*1.3 {
		t.Errorf("aggregate send rate %.0f B/s exceeds budget %.0f B/s", measured, budget)
	}
	if elapsed < time.Duration(float64(flows*size)/budget*0.5*float64(time.Second)) {
		t.Errorf("transfer finished in %v — too fast for a %.0f B/s budget over %d bytes",
			elapsed, budget, flows*size)
	}
}

// ceiling reads a flow's current rate-control ceiling.
func ceiling(f *SenderFlow) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m.MaxRate()
}

// govTransfer opens a sender/receiver pair that keeps transferring for
// the life of the test so the sender stays hungry under the governor.
// The pump goroutines ignore errors: the caller tears the session down
// with Abort when its assertion is met. A zero weight keeps the default.
func govTransfer(t *testing.T, sess *Session, hub *transport.Hub, g int, size int, weight float64) *SenderFlow {
	t.Helper()
	p := openPair(t, sess, hub.Endpoint(), hub.Endpoint(), g, FlowSpec{
		Buf: 64 << 10, Weight: weight, MinRateBps: 100e3, MaxRateBps: 64e6,
	})
	go func() { _, _ = io.Copy(io.Discard, p.rf) }()
	go func() { _, _ = p.sf.Write(make([]byte, size)) }()
	return p.sf
}

// TestGovernorWeightedShares checks the weighted split on live flows:
// two hungry senders with weights 3 and 1 under a 1 MB/s budget must
// converge to 750 and 250 KB/s ceilings.
func TestGovernorWeightedShares(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{Budget: 1e6})
	defer sess.Abort()

	a := govTransfer(t, sess, hub, 0, 8<<20, 3)
	b := govTransfer(t, sess, hub, 1, 8<<20, 1)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ceiling(a) == 750e3 && ceiling(b) == 250e3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("ceilings = %.0f/%.0f, want 750000/250000", ceiling(a), ceiling(b))
}

// TestGovernorDemandRedistribution pins the demand-aware behavior on
// live flows: an idle sender pacing at its 100 KB/s floor donates its
// slack, so the hungry flow's ceiling must climb well past the 500 KB/s
// equal split toward budget minus the donor's demand.
func TestGovernorDemandRedistribution(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{Budget: 1e6})
	defer sess.Abort()

	idle, err := sess.OpenSender(hub.Endpoint(), sender.Config{
		LocalPort: 1,
		Rate:      rate.Config{MinRate: 100e3, MaxRate: 64e6, MSS: 1400},
	})
	if err != nil {
		t.Fatal(err)
	}
	hungry := govTransfer(t, sess, hub, 1, 8<<20, 0)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// The idle flow demands at most 2× its 100 KB/s rate, so the
		// hungry flow's share must reach 1 MB/s − 200 KB/s.
		if ceiling(hungry) >= 790e3 && ceiling(idle) <= 210e3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("ceilings idle=%.0f hungry=%.0f, want idle ≤ 210000 and hungry ≥ 790000",
		ceiling(idle), ceiling(hungry))
}

// TestGovernorRuntimeTuning exercises the control-plane hooks directly:
// SetBudget re-splits on the fly, SetWeight re-weights a live flow, and
// SetCeiling caps a flow below its governor share.
func TestGovernorRuntimeTuning(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{Budget: 1e6})
	defer sess.Abort()

	a := govTransfer(t, sess, hub, 0, 8<<20, 0)
	b := govTransfer(t, sess, hub, 1, 8<<20, 0)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s (ceilings %.0f/%.0f)", what, ceiling(a), ceiling(b))
	}
	waitFor("equal split", func() bool { return ceiling(a) == 500e3 && ceiling(b) == 500e3 })

	sess.SetBudget(2e6)
	if got := sess.Budget(); got != 2e6 {
		t.Errorf("Budget() = %.0f after SetBudget, want 2000000", got)
	}
	waitFor("doubled budget split", func() bool { return ceiling(a) == 1e6 && ceiling(b) == 1e6 })

	a.SetWeight(3)
	if got := a.Weight(); got != 3 {
		t.Errorf("Weight() = %v after SetWeight, want 3", got)
	}
	waitFor("3:1 split", func() bool { return ceiling(a) == 1.5e6 && ceiling(b) == 500e3 })

	b.SetCeiling(200e3)
	waitFor("per-flow cap", func() bool { return ceiling(b) <= 200e3 })
}

// TestSessionDemuxSharedTransport hosts two flows of different groups
// on one shared endpoint — the sender of group 1 and a receiver of
// group 2 — and checks the port demultiplexer keeps both streams
// intact in both directions.
func TestSessionDemuxSharedTransport(t *testing.T) {
	const size = 16 << 10
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Close()

	sp1, rp1 := groupPorts(1)
	sp2, rp2 := groupPorts(2)
	shared := hub.Endpoint() // hosts g1's sender AND g2's receiver

	data1 := make([]byte, size)
	app.FillPattern(data1, 1<<20)
	data2 := make([]byte, size)
	app.FillPattern(data2, 2<<20)

	r1, err := sess.OpenReceiver(hub.Endpoint(), receiver.Config{LocalPort: rp1, RemotePort: sp1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.OpenReceiver(shared, receiver.Config{LocalPort: rp2, RemotePort: sp2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sess.OpenSender(shared, sender.Config{
		LocalPort: sp1, RemotePort: rp1, ExpectedReceivers: 1, Rate: fastRate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sess.OpenSender(hub.Endpoint(), sender.Config{
		LocalPort: sp2, RemotePort: rp2, ExpectedReceivers: 1, Rate: fastRate(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	check := func(name string, rf *ReceiverFlow, want []byte) {
		defer wg.Done()
		got, err := io.ReadAll(rf)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: got %d bytes, want %d (equal=%v)", name, len(got), len(want), bytes.Equal(got, want))
		}
	}
	send := func(name string, sf *SenderFlow, data []byte) {
		defer wg.Done()
		if _, err := sf.Write(data); err != nil {
			t.Errorf("%s write: %v", name, err)
		}
		if err := sf.Close(); err != nil {
			t.Errorf("%s close: %v", name, err)
		}
	}
	defer bound(t, "shared transport", flowPair{s1, r1}, flowPair{s2, r2})()
	wg.Add(4)
	go check("g1", r1, data1)
	go check("g2", r2, data2)
	go send("g1", s1, data1)
	go send("g2", s2, data2)
	wg.Wait()
}

// TestSessionPortConflictAndClosed covers the demux binding errors.
func TestSessionPortConflictAndClosed(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{})
	ep := hub.Endpoint()
	if _, err := sess.OpenSender(ep, sender.Config{LocalPort: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.OpenReceiver(ep, receiver.Config{LocalPort: 9}); err != ErrPortInUse {
		t.Errorf("duplicate port bind = %v, want ErrPortInUse", err)
	}
	// Different port on the same transport is fine.
	if _, err := sess.OpenReceiver(ep, receiver.Config{LocalPort: 10}); err != nil {
		t.Errorf("second port bind: %v", err)
	}
	sess.Abort()
	if _, err := sess.OpenSender(hub.Endpoint(), sender.Config{}); err != ErrClosed {
		t.Errorf("open after close = %v, want ErrClosed", err)
	}
}

// TestSenderFlowAbortUnblocksWrite mirrors the core-level guarantee at
// the session layer.
func TestSenderFlowAbortUnblocksWrite(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Abort()
	sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{
		SndBuf: 16 << 10, ExpectedReceivers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := sf.Write(make([]byte, 1<<20))
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	sf.Abort()
	select {
	case err := <-errCh:
		if err != ErrAborted {
			t.Errorf("blocked Write returned %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock Write")
	}
}

// TestSenderFlowWriteAfterClose: a Write after Close has ended the
// stream is refused with ErrClosed, not handed to the machine (which
// panics on it), and so is a Send on a closed socket built on the flow.
func TestSenderFlowWriteAfterClose(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Abort()
	sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{InitialRTT: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Write([]byte("before")); err != nil {
		t.Fatalf("Write before Close: %v", err)
	}
	if err := sf.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n, err := sf.Write([]byte("after")); n != 0 || err != ErrClosed {
		t.Errorf("Write after Close = %d, %v; want 0, ErrClosed", n, err)
	}
}

// TestReceiverFlowCloseUnblocksRead checks that closing a receiving flow
// with no sender fails a Read blocked on it.
func TestReceiverFlowCloseUnblocksRead(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Abort()
	rf, err := sess.OpenReceiverFlow(hub.Endpoint(), FlowSpec{Kind: KindReceiver})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := rf.Read(make([]byte, 10))
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	rf.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Errorf("blocked Read returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Read")
	}
}

// TestFlowDetachFreesPort verifies Detach unbinds the demux slot so
// the port can be reused, and drops the flow from snapshots.
func TestFlowDetachFreesPort(t *testing.T) {
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Abort()
	ep := hub.Endpoint()
	sf, err := sess.OpenSender(ep, sender.Config{LocalPort: 5})
	if err != nil {
		t.Fatal(err)
	}
	sf.Abort()
	sf.Detach()
	if n := len(sess.Snapshot().Flows); n != 0 {
		t.Errorf("snapshot has %d flows after Detach, want 0", n)
	}
	if _, err := sess.OpenSender(ep, sender.Config{LocalPort: 5}); err != nil {
		t.Errorf("rebind after Detach: %v", err)
	}
}
