package receiver

import (
	"io"
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/window"
)

func newR(t *testing.T, mod func(*Config)) *Receiver {
	t.Helper()
	cfg := Config{
		LocalAddr: 1,
		RcvBuf:    32 * (1400 + packet.HeaderSize), // 32-packet window
		MSS:       1400,
	}
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg)
}

func data(seq seqspace.Seq, payload string) *packet.Packet {
	return &packet.Packet{
		Header: packet.Header{
			Type:    packet.TypeData,
			Seq:     uint32(seq),
			Length:  uint32(len(payload)),
			RateAdv: 100000,
		},
		Payload: []byte(payload),
	}
}

func typesOf(pkts []*packet.Packet) []packet.Type {
	ts := make([]packet.Type, len(pkts))
	for i, p := range pkts {
		ts[i] = p.Type
	}
	return ts
}

func findType(pkts []*packet.Packet, ty packet.Type) *packet.Packet {
	for _, p := range pkts {
		if p.Type == ty {
			return p
		}
	}
	return nil
}

func TestJoinOnFirstData(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	out := r.Outgoing()
	j := findType(out, packet.TypeJoin)
	if j == nil {
		t.Fatalf("no JOIN after first data packet; got %v", typesOf(out))
	}
	if j.Seq != 1 {
		t.Errorf("JOIN carries next-expected %d, want 1", j.Seq)
	}
	// Second packet must not trigger another JOIN.
	r.HandlePacket(kernel.Jiffy, data(1, "b"))
	if findType(r.Outgoing(), packet.TypeJoin) != nil {
		t.Error("JOIN repeated on second data packet")
	}
}

func TestJoinResponseMeasuresRTT(t *testing.T) {
	r := newR(t, nil)
	if got := r.Stats().RTTMicros; got != 20000 {
		t.Errorf("RTTMicros gauge before any sample = %d, want two jiffies", got)
	}
	r.HandlePacket(100*sim.Millisecond, data(0, "a"))
	r.Outgoing()
	r.HandlePacket(130*sim.Millisecond, &packet.Packet{Header: packet.Header{Type: packet.TypeJoinResponse}})
	if r.rttEstimate != 30*sim.Millisecond || r.Stats().RTTMicros != 30000 {
		t.Errorf("RTT after JOIN exchange = %v (gauge %d us), want 30ms", r.rttEstimate, r.Stats().RTTMicros)
	}

	// A round trip the driver's clock cannot resolve floors at two quanta.
	r = newR(t, func(c *Config) { c.Quantum = 100 * sim.Microsecond })
	r.HandlePacket(100*sim.Millisecond, data(0, "a"))
	r.HandlePacket(100*sim.Millisecond+70*sim.Microsecond, &packet.Packet{Header: packet.Header{Type: packet.TypeJoinResponse}})
	if r.rttEstimate != 200*sim.Microsecond || r.Stats().RTTMicros != 200 {
		t.Errorf("RTT after a 70 us JOIN exchange = %v (gauge %d us), want the 200 us floor", r.rttEstimate, r.Stats().RTTMicros)
	}
}

// A rate request sent on a JOIN sample between the floor and two jiffies
// re-times the JOIN exchange: the sample was taken on a cold path, and
// the answer — matched by the Seq it echoes — may lower the estimate,
// never raise it. Under the paper's jiffy clock, and for a round trip
// the network accounts for, the one sample stands.
func TestRateRequestRetimesJoinSample(t *testing.T) {
	const us = sim.Microsecond
	joined := func(quantum, sample sim.Time) (*Receiver, sim.Time) {
		r := newR(t, func(c *Config) { c.RcvBuf = 256 << 10; c.Quantum = quantum })
		now := sim.Second
		r.HandlePacket(now, bulk(0))
		r.HandlePacket(now+sample, &packet.Packet{Header: packet.Header{Type: packet.TypeJoinResponse, Seq: 1}})
		r.Outgoing()
		return r, now + sample
	}
	// batch empties the window, delivers one 64-packet in-order burst —
	// 35 % of the window, past the Warning mark — up to the first rate
	// request and, if rule 2's live hold kept that back, one more packet
	// a quantum later with no Read in between. It returns what the
	// machine sent and when its last packet arrived.
	buf := make([]byte, 256<<10)
	batch := func(r *Receiver, now sim.Time) ([]*packet.Packet, sim.Time) {
		r.Read(now, buf)
		asked := r.Stats().RateRequests
		for i := 0; i < 64 && r.Stats().RateRequests == asked; i++ {
			r.HandlePacket(now, bulk(r.wnd.Next()))
		}
		if r.Stats().RateRequests == asked {
			now += r.cfg.Quantum
			r.HandlePacket(now, bulk(r.wnd.Next()))
		}
		return r.Outgoing(), now
	}
	answer := func(r *Receiver, now sim.Time, seq uint32) {
		r.HandlePacket(now, &packet.Packet{Header: packet.Header{Type: packet.TypeJoinResponse, Seq: seq}})
	}

	r, now := joined(100*us, 3*sim.Millisecond)
	out, asked := batch(r, now+sim.Millisecond)
	j := findType(out, packet.TypeJoin)
	if j == nil || j.Seq != uint32(r.wnd.Next()) {
		t.Fatalf("rate request on a 3 ms JOIN sample: re-timing JOIN = %v, want one carrying %d", j, r.wnd.Next())
	}
	answer(r, asked+50*us, 1) // a straggler answering the first JOIN
	if r.rttEstimate != 3*sim.Millisecond {
		t.Errorf("estimate after an answer to an older JOIN = %v, want 3ms kept", r.rttEstimate)
	}
	if out, _ := batch(r, now+2*sim.Millisecond); findType(out, packet.TypeJoin) != nil {
		t.Error("a second re-timing JOIN went out while the first was in flight")
	}
	answer(r, asked+400*us, j.Seq)
	if r.rttEstimate != 400*us || r.Stats().RTTMicros != 400 {
		t.Errorf("estimate after a 400 us re-timing = %v (gauge %d us), want 400us", r.rttEstimate, r.Stats().RTTMicros)
	}
	out, _ = batch(r, now+3*sim.Millisecond)
	j = findType(out, packet.TypeJoin)
	if j == nil {
		t.Fatal("no re-timing JOIN while the estimate is still above the floor")
	}
	answer(r, now+5*sim.Millisecond, j.Seq)
	if r.rttEstimate != 400*us {
		t.Errorf("estimate after a slower re-timing = %v, want 400us kept", r.rttEstimate)
	}
	for i := sim.Time(0); i < 2*maxRetimes; i++ {
		out, at := batch(r, now+(20+20*i)*sim.Millisecond)
		if j := findType(out, packet.TypeJoin); j != nil {
			answer(r, at+sim.Millisecond, j.Seq)
		}
	}
	if r.retimes != maxRetimes {
		t.Errorf("%d re-timing JOINs in one flow, want the budget of %d", r.retimes, maxRetimes)
	}

	for _, c := range []struct {
		name            string
		quantum, sample sim.Time
		asks            bool
	}{
		{"a sample at the floor", 100 * us, 70 * us, false},
		{"a round trip of the network's size", 100 * us, 50 * sim.Millisecond, true},
		{"the paper's jiffy clock", kernel.Jiffy, 3 * sim.Millisecond, true},
	} {
		r, now := joined(c.quantum, c.sample)
		out, _ := batch(r, now+sim.Millisecond)
		if asked := findType(out, packet.TypeControl) != nil; asked != c.asks {
			t.Errorf("%s: rate request sent = %v, want %v", c.name, asked, c.asks)
		}
		if findType(out, packet.TypeJoin) != nil {
			t.Errorf("%s: the JOIN exchange was re-timed", c.name)
		}
	}
}

// Rule 2 under a live quantum answers a reader that falls behind, not a
// receive batch landing: a 64-packet burst — one GSO burst handed over
// as one batch, past the Warning mark of a 256 KiB window — trips the
// rule, but the rate request waits a quantum, and goes only if a packet
// that late still trips it with no Read having drained the window to
// Safe in between. While the sender may still be ramping — before the
// flow's first rate request and after an urgent one — a trip asks at
// once, and under the paper's jiffy clock the rule stays per packet.
func TestRuleTwoHoldsABatchTransient(t *testing.T) {
	const q = 350 * sim.Microsecond
	buf := make([]byte, 256<<10)
	// burst delivers n in-order packets at one instant and returns the
	// rate requests and urgent requests the machine sent.
	burst := func(r *Receiver, now sim.Time, n int) (warn, urgent int) {
		for i := 0; i < n; i++ {
			r.HandlePacket(now, bulk(r.wnd.Next()))
		}
		for _, p := range r.Outgoing() {
			switch {
			case p.Type != packet.TypeControl:
			case p.URG():
				urgent++
			default:
				warn++
			}
		}
		return warn, urgent
	}
	// steady returns a receiver past its first rate request, its window
	// drained, and the time it stands at.
	steady := func(quantum sim.Time) (*Receiver, sim.Time) {
		r := newR(t, func(c *Config) { c.RcvBuf = 256 << 10; c.Quantum = quantum })
		now := sim.Second
		if warn, _ := burst(r, now, 64); warn != 1 {
			t.Fatalf("quantum %v: the flow's first trip drew %d rate requests, want 1 at once", quantum, warn)
		}
		now += sim.Millisecond
		r.Read(now, buf)
		return r, now
	}

	r, now := steady(q)
	if warn, _ := burst(r, now, 64); warn != 0 {
		t.Errorf("a batch past Warning drew %d rate requests at once, want it held", warn)
	}
	r.Read(now+q/2, buf)
	if warn, _ := burst(r, now+q, 64); warn != 0 {
		t.Errorf("a batch a Read drained to Safe within the quantum, then another, drew %d rate requests, want none", warn)
	}

	r, now = steady(q)
	burst(r, now, 64)
	if warn, _ := burst(r, now+q-1, 1); warn != 0 {
		t.Errorf("a packet under a quantum after the trip drew %d rate requests, want none", warn)
	}
	if warn, _ := burst(r, now+q, 1); warn != 1 {
		t.Errorf("a packet a quantum after the trip, no Read between, drew %d rate requests, want 1", warn)
	}

	r, now = steady(q)
	if warn, urgent := burst(r, now, 140); warn != 0 || urgent != 1 {
		t.Fatalf("a batch past Critical drew %d rate and %d urgent requests, want 0 and 1", warn, urgent)
	}
	r.Read(now+sim.Millisecond, buf)
	if warn, _ := burst(r, now+2*sim.Millisecond, 64); warn != 1 {
		t.Errorf("the first trip after an urgent request drew %d rate requests, want 1 at once", warn)
	}

	r, now = steady(kernel.Jiffy)
	if warn, _ := burst(r, now+kernel.Jiffy, 64); warn != 1 {
		t.Errorf("under the jiffy clock a batch past Warning drew %d rate requests, want 1 at once", warn)
	}
}

// bulk is an MSS-sized data packet advertising 200 MB/s: rule 2's
// look-ahead then holds more than what a 64-packet burst leaves empty of
// a 256 KiB window (168 KB) on any estimate above 210 us, and less on the
// 200 us floor.
func bulk(seq seqspace.Seq) *packet.Packet {
	return &packet.Packet{
		Header:  packet.Header{Type: packet.TypeData, Seq: uint32(seq), Length: 1400, RateAdv: 200e6},
		Payload: make([]byte, 1400),
	}
}

func TestGapTriggersImmediateNak(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	// Sequence 1 is lost; 2 arrives.
	r.HandlePacket(kernel.Jiffy, data(2, "c"))
	out := r.Outgoing()
	nak := findType(out, packet.TypeNak)
	if nak == nil {
		t.Fatalf("no NAK on gap; got %v", typesOf(out))
	}
	if nak.Seq != 1 || nak.Length != 1 {
		t.Errorf("NAK covers seq=%d len=%d, want 1,1", nak.Seq, nak.Length)
	}
	if nak.RateAdv != 1 {
		t.Errorf("NAK rcv_nxt field = %d, want 1", nak.RateAdv)
	}
	if r.Stats().NaksSent != 1 {
		t.Errorf("NaksSent = %d", r.Stats().NaksSent)
	}
}

func TestNakCoalescesConsecutiveGap(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	// 1,2,3 lost; 4 arrives: one NAK for the run of three.
	r.HandlePacket(kernel.Jiffy, data(4, "e"))
	nak := findType(r.Outgoing(), packet.TypeNak)
	if nak == nil {
		t.Fatal("no NAK")
	}
	if nak.Seq != 1 || nak.Length != 3 {
		t.Errorf("NAK seq=%d len=%d, want 1,3", nak.Seq, nak.Length)
	}
}

func TestNakSuppressionAndRetry(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	r.HandlePacket(kernel.Jiffy, data(2, "c"))
	if findType(r.Outgoing(), packet.TypeNak) == nil {
		t.Fatal("no initial NAK")
	}
	// More out-of-order arrivals for the same gap must not re-NAK
	// (local NAK suppression).
	r.HandlePacket(2*kernel.Jiffy, data(3, "d"))
	if findType(r.Outgoing(), packet.TypeNak) != nil {
		t.Error("suppressed NAK was resent on another arrival")
	}
	// But after the retry interval the NAK Manager resends.
	wake, ok := r.NextWake()
	if !ok {
		t.Fatal("no NAK retry scheduled")
	}
	r.Advance(wake)
	if findType(r.Outgoing(), packet.TypeNak) == nil {
		t.Error("NAK Manager did not retry after the interval")
	}
	if r.Stats().NakRetries != 1 {
		t.Errorf("NakRetries = %d, want 1", r.Stats().NakRetries)
	}
}

func TestRetransmissionFillsGapAndCancelsNak(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.HandlePacket(kernel.Jiffy, data(2, "c"))
	r.Outgoing()
	r.HandlePacket(2*kernel.Jiffy, data(1, "b"))
	if _, ok := r.NextWake(); ok {
		// Update timer may still be armed in H-RMC; check it is not the
		// NAK timer by ensuring no NAK goes out at that wake.
	}
	r.Advance(3 * kernel.Jiffy * 100)
	if findType(r.Outgoing(), packet.TypeNak) != nil {
		t.Error("NAK resent after the gap was filled")
	}
	buf := make([]byte, 10)
	n, _ := r.Read(0, buf)
	if n != 3 || string(buf[:3]) != "abc" {
		t.Errorf("delivered %q", buf[:n])
	}
}

func TestKeepaliveExposesTailLoss(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	// Packets 1 and 2 lost entirely; keepalive says the last sent was 2.
	r.HandlePacket(sim.Second, &packet.Packet{Header: packet.Header{
		Type: packet.TypeKeepalive, Seq: 2,
	}})
	nak := findType(r.Outgoing(), packet.TypeNak)
	if nak == nil {
		t.Fatal("keepalive did not expose tail loss")
	}
	if nak.Seq != 1 || nak.Length != 2 {
		t.Errorf("NAK seq=%d len=%d, want 1,2", nak.Seq, nak.Length)
	}
	if r.Stats().KeepalivesHeard != 1 {
		t.Error("keepalive not counted")
	}
}

func TestProbeAnsweredWithUpdateWhenDataHeld(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.HandlePacket(0, data(1, "b"))
	r.Outgoing()
	r.HandlePacket(kernel.Jiffy, &packet.Packet{Header: packet.Header{
		Type: packet.TypeProbe, Seq: 1,
	}})
	up := findType(r.Outgoing(), packet.TypeUpdate)
	if up == nil {
		t.Fatal("probe for held data not answered with UPDATE")
	}
	if up.Seq != 2 {
		t.Errorf("UPDATE carries %d, want rcv_nxt 2", up.Seq)
	}
	if r.Stats().ProbesReceived != 1 || r.Stats().UpdatesSent != 1 {
		t.Error("probe/update counters wrong")
	}
}

func TestProbeAnsweredWithNakWhenDataMissing(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	// Probe for seq 3: receiver has only 0, so 1..3 are missing.
	r.HandlePacket(kernel.Jiffy, &packet.Packet{Header: packet.Header{
		Type: packet.TypeProbe, Seq: 3,
	}})
	out := r.Outgoing()
	nak := findType(out, packet.TypeNak)
	if nak == nil {
		t.Fatalf("probe for missing data not answered with NAK; got %v", typesOf(out))
	}
	if nak.Seq != 1 || nak.Length != 3 {
		t.Errorf("NAK seq=%d len=%d, want 1,3", nak.Seq, nak.Length)
	}
	if findType(out, packet.TypeUpdate) != nil {
		t.Error("probe answered with both UPDATE and NAK")
	}
}

func TestRMCModeIgnoresProbes(t *testing.T) {
	r := newR(t, func(c *Config) { c.Mode = RMC })
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	r.HandlePacket(kernel.Jiffy, &packet.Packet{Header: packet.Header{
		Type: packet.TypeProbe, Seq: 5,
	}})
	if out := r.Outgoing(); len(out) != 0 {
		t.Errorf("RMC receiver answered a probe: %v", typesOf(out))
	}
	if r.Stats().ProbesReceived != 0 {
		t.Error("RMC receiver counted a probe")
	}
}

func TestPeriodicUpdates(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	wake, ok := r.NextWake()
	if !ok {
		t.Fatal("update timer not armed")
	}
	if wake != 50*kernel.Jiffy {
		t.Errorf("first update at %v, want 50 jiffies", wake)
	}
	r.Advance(wake)
	up := findType(r.Outgoing(), packet.TypeUpdate)
	if up == nil {
		t.Fatal("no periodic UPDATE")
	}
	if up.Seq != 1 {
		t.Errorf("UPDATE seq = %d, want 1", up.Seq)
	}
}

func TestUpdateSkippedWhenOtherFeedbackSent(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	// A NAK in this period counts as reverse traffic.
	r.HandlePacket(kernel.Jiffy, data(2, "c"))
	r.Outgoing()
	r.Advance(50 * kernel.Jiffy)
	if findType(r.Outgoing(), packet.TypeUpdate) != nil {
		t.Error("UPDATE sent despite NAK reverse traffic in the period")
	}
	if r.Stats().UpdatesSkipped != 1 {
		t.Errorf("UpdatesSkipped = %d", r.Stats().UpdatesSkipped)
	}
}

func TestDynamicUpdatePeriod(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.HandlePacket(0, data(1, "b"))
	// Complete the JOIN handshake so the join-retry timer does not
	// interleave with the update timer below.
	r.HandlePacket(0, &packet.Packet{Header: packet.Header{Type: packet.TypeJoinResponse}})
	r.Outgoing()
	p0 := r.updatePeriod
	// No probes in the period: period grows by one jiffy.
	r.Advance(p0)
	if got := r.updatePeriod; got != p0+kernel.Jiffy {
		t.Errorf("period after quiet interval = %v, want %v", got, p0+kernel.Jiffy)
	}
	// A probe arrives: period shrinks by one jiffy at the next firing.
	r.HandlePacket(p0+kernel.Jiffy, &packet.Packet{Header: packet.Header{
		Type: packet.TypeProbe, Seq: 0,
	}})
	wake, _ := r.NextWake()
	r.Advance(wake)
	if got := r.updatePeriod; got != p0 {
		t.Errorf("period after probe = %v, want %v", got, p0)
	}
	r.Outgoing()
}

func TestUpdatePeriodBounds(t *testing.T) {
	r := newR(t, func(c *Config) { c.InitialUpdatePeriod = maxUpdatePeriod - 2*kernel.Jiffy })
	r.HandlePacket(0, data(0, "a"))
	// Complete the JOIN handshake so only the update timer fires.
	r.HandlePacket(0, &packet.Packet{Header: packet.Header{Type: packet.TypeJoinResponse}})
	r.Outgoing()
	now := sim.Time(0)
	// Quiet periods push the period to the max and no further.
	for i := 0; i < 10; i++ {
		wake, ok := r.NextWake()
		if !ok {
			t.Fatal("update timer dead")
		}
		now = wake
		r.Advance(now)
		r.Outgoing()
	}
	if got := r.updatePeriod; got != maxUpdatePeriod {
		t.Errorf("period = %v, want the %v max", got, maxUpdatePeriod)
	}
	// Probes every period push it back to the min and no further.
	r.updatePeriod = minUpdatePeriod + 2*kernel.Jiffy
	for i := 0; i < 10; i++ {
		r.HandlePacket(now, &packet.Packet{Header: packet.Header{Type: packet.TypeProbe, Seq: 0}})
		wake, _ := r.NextWake()
		now = wake
		r.Advance(now)
		r.Outgoing()
	}
	if got := r.updatePeriod; got != minUpdatePeriod {
		t.Errorf("period = %v, want the %v min", got, minUpdatePeriod)
	}
}

func TestRMCModeSendsNoUpdates(t *testing.T) {
	r := newR(t, func(c *Config) { c.Mode = RMC })
	r.HandlePacket(0, data(0, "a"))
	// Only the JOIN retry timer may be armed; once the handshake
	// completes, an RMC receiver has no periodic timers at all.
	r.HandlePacket(0, &packet.Packet{Header: packet.Header{Type: packet.TypeJoinResponse}})
	r.Outgoing()
	if _, ok := r.NextWake(); ok {
		t.Error("RMC receiver armed the update timer")
	}
}

func TestWarningRateRequest(t *testing.T) {
	r := newR(t, nil) // 32-packet window; warning at 16
	now := sim.Time(0)
	// Fill to 50% without reading; advertised rate is high so the
	// WARNBUF rule predicts overflow.
	for i := 0; i < 16; i++ {
		now += sim.Millisecond
		p := data(seqspace.Seq(i), "x")
		p.RateAdv = 10_000_000 // 10 MB/s: fills the window within 4 RTTs
		r.HandlePacket(now, p)
	}
	ctrl := findType(r.Outgoing(), packet.TypeControl)
	if ctrl == nil {
		t.Fatal("no CONTROL in warning region under overflow prediction")
	}
	if ctrl.URG() {
		t.Error("warning request has URG set")
	}
	if ctrl.RateAdv != 5_000_000 {
		t.Errorf("suggested rate = %d, want half of advertised", ctrl.RateAdv)
	}
	if r.Stats().RateRequests == 0 {
		t.Error("rate request not counted")
	}
}

func TestNoWarningWhenRateIsSlow(t *testing.T) {
	r := newR(t, nil)
	now := sim.Time(0)
	for i := 0; i < 16; i++ {
		now += sim.Millisecond
		p := data(seqspace.Seq(i), "x")
		p.RateAdv = 100 // 100 B/s cannot overflow the window in 4 RTTs
		r.HandlePacket(now, p)
	}
	if findType(r.Outgoing(), packet.TypeControl) != nil {
		t.Error("warning CONTROL sent although the advertised rate is harmless")
	}
}

func TestCriticalUrgentRequest(t *testing.T) {
	r := newR(t, nil) // critical at 28 of 32
	now := sim.Time(0)
	for i := 0; i < 29; i++ {
		now += sim.Millisecond
		p := data(seqspace.Seq(i), "x")
		p.RateAdv = 100 // even a slow rate must not avoid the urgent stop
		r.HandlePacket(now, p)
	}
	out := r.Outgoing()
	var urgent *packet.Packet
	for _, p := range out {
		if p.Type == packet.TypeControl && p.URG() {
			urgent = p
		}
	}
	if urgent == nil {
		t.Fatalf("no urgent CONTROL in critical region; got %v", typesOf(out))
	}
	if r.Stats().UrgentRequests == 0 {
		t.Error("urgent request not counted")
	}
}

func TestUrgentThrottled(t *testing.T) {
	r := newR(t, func(c *Config) { c.AssumedRTT = 100 * sim.Millisecond })
	now := sim.Time(0)
	for i := 0; i < 32; i++ {
		now += sim.Millisecond
		p := data(seqspace.Seq(i), "x")
		r.HandlePacket(now, p)
	}
	urgents := r.Stats().UrgentRequests
	if urgents == 0 {
		t.Fatal("no urgent requests at all")
	}
	// All arrivals landed within 2*RTT (32ms < 200ms): exactly one urgent.
	if urgents != 1 {
		t.Errorf("urgent requests = %d, want 1 within two RTTs", urgents)
	}
}

func TestReadDeliversStreamAndEOF(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "hello "))
	r.HandlePacket(0, data(1, "world"))
	fin := data(2, "")
	fin.Flags = packet.FlagFIN
	r.HandlePacket(0, fin)
	r.Outgoing()

	buf := make([]byte, 64)
	n, err := r.Read(kernel.Jiffy, buf)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello world" {
		t.Errorf("stream = %q", buf[:n])
	}
	if !r.FinDelivered() {
		t.Error("FIN not recorded as delivered")
	}
	if _, err := r.Read(kernel.Jiffy, buf); err != io.EOF {
		t.Errorf("read after FIN: err = %v, want EOF", err)
	}
	// End of stream queues a final UPDATE and a LEAVE.
	out := r.Outgoing()
	if findType(out, packet.TypeLeave) == nil {
		t.Errorf("no LEAVE at end of stream; got %v", typesOf(out))
	}
	if findType(out, packet.TypeUpdate) == nil {
		t.Errorf("no final UPDATE at end of stream; got %v", typesOf(out))
	}
	r.HandlePacket(kernel.Jiffy, &packet.Packet{Header: packet.Header{Type: packet.TypeLeaveResponse}})
	if !r.Done() {
		t.Error("receiver not Done after LEAVE_RESPONSE")
	}
}

func TestDuplicateAndOutOfWindowCounters(t *testing.T) {
	r := newR(t, nil)
	r.HandlePacket(0, data(0, "a"))
	r.HandlePacket(0, data(0, "a"))
	if r.Stats().Duplicates != 1 {
		t.Errorf("Duplicates = %d", r.Stats().Duplicates)
	}
	r.HandlePacket(0, data(100, "z"))
	if r.Stats().OutOfWindow != 1 {
		t.Errorf("OutOfWindow = %d", r.Stats().OutOfWindow)
	}
}

func TestSenderBoundTypesRejected(t *testing.T) {
	r := newR(t, nil)
	for _, ty := range []packet.Type{packet.TypeNak, packet.TypeJoin, packet.TypeLeave, packet.TypeControl, packet.TypeUpdate} {
		if err := r.HandlePacket(0, &packet.Packet{Header: packet.Header{Type: ty}}); err != ErrNotData {
			t.Errorf("%v: err = %v, want ErrNotData", ty, err)
		}
	}
}

func TestWindowSizeFromRcvBuf(t *testing.T) {
	r := New(Config{RcvBuf: 64 << 10, MSS: 1400})
	want := uint32((64 << 10) / (1400 + packet.HeaderSize))
	if r.wnd.Size() != want {
		t.Errorf("window size = %d, want %d", r.wnd.Size(), want)
	}
	tiny := New(Config{RcvBuf: 10, MSS: 1400})
	if tiny.wnd.Size() != 1 {
		t.Error("tiny buffer must still hold one packet")
	}
}

func TestProbeForDataBeyondWindowClamped(t *testing.T) {
	r := New(Config{RcvBuf: 4 * (1400 + packet.HeaderSize), MSS: 1400})
	r.HandlePacket(0, data(0, "a"))
	r.Outgoing()
	// Probe far beyond the 4-packet window: the gap must clamp to the
	// window so the receiver does not NAK data it cannot buffer.
	r.HandlePacket(kernel.Jiffy, &packet.Packet{Header: packet.Header{
		Type: packet.TypeProbe, Seq: 100,
	}})
	nak := findType(r.Outgoing(), packet.TypeNak)
	if nak == nil {
		t.Fatal("no NAK for probed missing data")
	}
	if nak.Length > 3 {
		t.Errorf("NAK for %d packets exceeds window space 3", nak.Length)
	}
	_ = window.Gap{}
}
