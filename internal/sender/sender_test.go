package sender

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

func newS(t *testing.T, mod func(*Config)) *Sender {
	t.Helper()
	cfg := Config{
		SndBuf:     64 * (1000 + packet.HeaderSize),
		MSS:        1000,
		InitialRTT: 10 * sim.Millisecond,
		Rate:       rate.Config{MinRate: 1e6, MaxRate: 1e8, MSS: 1000},
	}
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg)
}

func dataOuts(outs []Out) []Out {
	var d []Out
	for _, o := range outs {
		if o.Pkt.Type == packet.TypeData {
			d = append(d, o)
		}
	}
	return d
}

func findOut(outs []Out, ty packet.Type) *Out {
	for i := range outs {
		if outs[i].Pkt.Type == ty {
			return &outs[i]
		}
	}
	return nil
}

// feedback builds a receiver feedback packet.
func fb(ty packet.Type, seq uint32) *packet.Packet {
	return &packet.Packet{Header: packet.Header{Type: ty, Seq: seq}}
}

func TestWriteFragmentsIntoMSS(t *testing.T) {
	s := newS(t, nil)
	n := s.Write(0, make([]byte, 2500))
	if n != 2500 {
		t.Fatalf("Write = %d", n)
	}
	s.Tick(kernel.Jiffy)
	outs := dataOuts(s.Outgoing())
	if len(outs) != 3 {
		t.Fatalf("sent %d packets, want 3 (1000+1000+500)", len(outs))
	}
	if len(outs[0].Pkt.Payload) != 1000 || len(outs[2].Pkt.Payload) != 500 {
		t.Errorf("fragment sizes %d,%d,%d", len(outs[0].Pkt.Payload), len(outs[1].Pkt.Payload), len(outs[2].Pkt.Payload))
	}
	for i, o := range outs {
		if o.Pkt.Seq != uint32(i) {
			t.Errorf("packet %d has seq %d", i, o.Pkt.Seq)
		}
		if !o.Dest.Multicast {
			t.Error("data packet not multicast")
		}
		if o.Pkt.RateAdv == 0 {
			t.Error("data packet missing rate advertisement")
		}
	}
	if s.Stats().PacketsSent != 3 || s.Stats().BytesSent != 2500 {
		t.Errorf("stats: %d pkts %d bytes", s.Stats().PacketsSent, s.Stats().BytesSent)
	}
}

func TestWriteStopsAtWindowLimit(t *testing.T) {
	s := New(Config{SndBuf: 3 * (1000 + packet.HeaderSize), MSS: 1000})
	n := s.Write(0, make([]byte, 10_000))
	if n != 3000 {
		t.Fatalf("Write consumed %d, want 3000 (window limit)", n)
	}
	if s.Write(0, make([]byte, 1000)) != 0 {
		t.Error("Write into a full window consumed bytes")
	}
}

func TestRatePacing(t *testing.T) {
	// 1 MB/s min rate: one jiffy admits ~10200 wire bytes ≈ 10 packets.
	s := newS(t, nil)
	s.Write(0, make([]byte, 100_000))
	s.Tick(kernel.Jiffy)
	first := len(dataOuts(s.Outgoing()))
	if first < 5 || first > 25 {
		t.Errorf("first tick sent %d packets, want ≈10 at 1MB/s", first)
	}
	// Second tick: roughly another jiffy's worth.
	s.Tick(2 * kernel.Jiffy)
	second := len(dataOuts(s.Outgoing()))
	if second < 5 || second > 30 {
		t.Errorf("second tick sent %d packets", second)
	}
}

// A live session's quantum survives the default rates: a Rate that
// names only its Quantum still gets the paper's floor and ceiling.
func TestDefaultRateKeepsQuantum(t *testing.T) {
	const q = 350 * sim.Microsecond
	s := New(Config{Rate: rate.Config{Quantum: q}})
	if got, def := s.cfg.Rate, rate.DefaultConfig(); got.Quantum != q || got.MinRate != def.MinRate || got.MaxRate != def.MaxRate {
		t.Errorf("Rate = %+v, want the defaults with Quantum %v", got, q)
	}
}

func TestRateGrowthWhileSending(t *testing.T) {
	// Short hold time so lazy release keeps freeing window space and the
	// application can keep the sender supplied.
	s := newS(t, func(c *Config) { c.MinBufRTTs = 1 })
	now := sim.Time(0)
	for i := 0; i < 30; i++ {
		s.Write(now, make([]byte, 100_000))
		now += kernel.Jiffy
		s.Tick(now)
		s.Outgoing()
	}
	if got := s.Rate(now); got <= 1e6 {
		t.Errorf("rate did not grow under demand: %v", got)
	}
}

// growRate drives the sender until its rate exceeds target.
func growRate(t *testing.T, s *Sender, now *sim.Time, target float64) {
	t.Helper()
	for i := 0; i < 200; i++ {
		s.Write(*now, make([]byte, 100_000))
		*now += kernel.Jiffy
		s.Tick(*now)
		s.Outgoing()
		if s.Rate(*now) > target {
			return
		}
	}
	t.Fatalf("rate stuck at %v, wanted > %v", s.Rate(*now), target)
}

func TestNakTriggersRetransmissionAndCut(t *testing.T) {
	s := newS(t, nil)
	s.Write(0, make([]byte, 5000))
	s.Tick(kernel.Jiffy)
	s.Outgoing()

	nak := fb(packet.TypeNak, 1)
	nak.Length = 2
	nak.RateAdv = 1 // receiver's next expected
	s.HandlePacket(3*kernel.Jiffy, 7, nak)
	if s.Stats().NaksReceived != 1 {
		t.Error("NAK not counted")
	}
	// Retransmission happens on the next tick, well after the half-RTT
	// in-flight guard.
	s.Tick(10 * kernel.Jiffy)
	outs := dataOuts(s.Outgoing())
	if len(outs) != 2 {
		t.Fatalf("retransmitted %d packets, want 2", len(outs))
	}
	if outs[0].Pkt.Seq != 1 || outs[1].Pkt.Seq != 2 {
		t.Errorf("retransmitted seqs %d,%d", outs[0].Pkt.Seq, outs[1].Pkt.Seq)
	}
	if outs[0].Pkt.Tries != 1 {
		t.Errorf("retransmission Tries = %d, want 1", outs[0].Pkt.Tries)
	}
	if s.Stats().Retransmissions != 2 {
		t.Errorf("Retransmissions = %d", s.Stats().Retransmissions)
	}
}

func TestNakCutsGrownRate(t *testing.T) {
	s := newS(t, func(c *Config) { c.MinBufRTTs = 1 })
	now := sim.Time(0)
	growRate(t, s, &now, 3e6)
	before := s.Rate(now)
	nak := fb(packet.TypeNak, uint32(s.wnd.Next()-1))
	nak.Length = 1
	s.HandlePacket(now, 7, nak)
	after := s.Rate(now)
	if after >= before {
		t.Fatalf("rate not cut after NAK: %v >= %v", after, before)
	}
	if after < before/2-1 {
		t.Errorf("rate cut too deep: %v from %v", after, before)
	}
	// A second NAK for data sent before the cut is the same loss epoch
	// and must not cut again. It comes well past the controller's own
	// one-cut-per-RTT hold, so only the epoch rule decides.
	nak2 := fb(packet.TypeNak, uint32(s.wnd.Base()))
	nak2.Length = 1
	now += 100 * sim.Millisecond
	s.HandlePacket(now, 8, nak2)
	if got := s.Rate(now); got != after {
		t.Errorf("same-epoch NAK moved the rate: %v -> %v", after, got)
	}
}

// The rate is cut once per loss epoch: a NAK for data sent before the
// last cut reports the loss that cut already answered, and the first NAK
// for data from snd_nxt at that cut onward is a new loss. Each NAK comes
// well past the rate controller's own one-cut-per-RTT hold, so only the
// epoch rule decides.
func TestOneRateCutPerLossEpoch(t *testing.T) {
	s := newS(t, func(c *Config) { c.MinBufRTTs = 1 })
	now := sim.Time(0)
	growRate(t, s, &now, 8e6)
	nakAt := func(seq seqspace.Seq) (before, after float64) {
		t.Helper()
		now += 100 * sim.Millisecond
		if s.wnd.Entry(seq) == nil {
			t.Fatalf("seq %d is not buffered; its NAK would not reach the cut", seq)
		}
		before = s.Rate(now)
		n := fb(packet.TypeNak, uint32(seq))
		n.Length = 1
		s.HandlePacket(now, 7, n)
		return before, s.Rate(now)
	}

	lost := s.wnd.Next() - 1
	if before, after := nakAt(lost); after >= before {
		t.Fatalf("first NAK did not cut: %v -> %v", before, after)
	}
	epoch := s.wnd.Next()
	if before, after := nakAt(lost); after != before {
		t.Errorf("NAK for data sent before the cut cut again: %v -> %v", before, after)
	}

	s.Write(now, make([]byte, 5000))
	for i := 0; i < 10; i++ {
		now += kernel.Jiffy
		s.Tick(now)
		s.Outgoing()
	}
	if !seqspace.After(s.wnd.Next(), epoch) {
		t.Fatalf("nothing written from the epoch's start %d", epoch)
	}
	if before, after := nakAt(epoch); after >= before {
		t.Errorf("NAK for the first packet of a new epoch did not cut: %v -> %v", before, after)
	}
}

func TestRetransmissionGuardCoalescesDuplicateNaks(t *testing.T) {
	s := newS(t, func(c *Config) { c.InitialRTT = 100 * sim.Millisecond })
	s.Write(0, make([]byte, 3000))
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	// Three receivers NAK the same packet in the same window.
	for n := packet.NodeID(1); n <= 3; n++ {
		nak := fb(packet.TypeNak, 0)
		nak.Length = 1
		s.HandlePacket(100*sim.Millisecond, n, nak)
	}
	s.Tick(110 * sim.Millisecond)
	if got := len(dataOuts(s.Outgoing())); got != 1 {
		t.Fatalf("retransmitted %d copies, want 1", got)
	}
	// A NAK arriving moments later is also absorbed by the guard.
	nak := fb(packet.TypeNak, 0)
	nak.Length = 1
	s.HandlePacket(120*sim.Millisecond, 4, nak)
	s.Tick(130 * sim.Millisecond)
	if got := len(dataOuts(s.Outgoing())); got != 0 {
		t.Errorf("in-flight retransmission duplicated %d times", got)
	}
}

func TestNakForReleasedDataGetsNakErr(t *testing.T) {
	s := newS(t, func(c *Config) { c.Mode = RMC; c.MinBufRTTs = 1; c.InitialRTT = sim.Millisecond })
	s.Write(0, make([]byte, 1000))
	s.Close(0) // closing drains the window once deadlines pass
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	// After MINBUF RTTs the RMC sender releases unconditionally.
	s.Tick(10 * kernel.Jiffy)
	s.Outgoing()
	if s.WindowBytes() != 0 {
		t.Fatal("RMC sender did not release")
	}
	nak := fb(packet.TypeNak, 0)
	nak.Length = 1
	s.HandlePacket(11*kernel.Jiffy, 9, nak)
	out := findOut(s.Outgoing(), packet.TypeNakErr)
	if out == nil {
		t.Fatal("no NAK_ERR for released data")
	}
	if out.Dest.Multicast || out.Dest.Node != 9 {
		t.Error("NAK_ERR not unicast to the requester")
	}
	if s.Stats().NakErrsSent != 1 {
		t.Error("NakErr not counted")
	}
}

func TestJoinLeaveMembership(t *testing.T) {
	s := newS(t, nil)
	s.HandlePacket(0, 5, fb(packet.TypeJoin, 0))
	if s.Members() != 1 {
		t.Fatalf("members = %d", s.Members())
	}
	jr := findOut(s.Outgoing(), packet.TypeJoinResponse)
	if jr == nil || jr.Dest.Node != 5 || jr.Dest.Multicast {
		t.Fatal("JOIN_RESPONSE missing or misaddressed")
	}
	// Duplicate JOIN stays idempotent but is re-acknowledged.
	s.HandlePacket(kernel.Jiffy, 5, fb(packet.TypeJoin, 0))
	if s.Members() != 1 {
		t.Error("duplicate JOIN added a member")
	}
	if findOut(s.Outgoing(), packet.TypeJoinResponse) == nil {
		t.Error("duplicate JOIN not re-acknowledged")
	}
	s.HandlePacket(2*kernel.Jiffy, 5, fb(packet.TypeLeave, 10))
	if s.Members() != 0 {
		t.Error("LEAVE did not remove the member")
	}
	if findOut(s.Outgoing(), packet.TypeLeaveResponse) == nil {
		t.Error("no LEAVE_RESPONSE")
	}
}

func TestHRMCReleaseGatedOnMemberState(t *testing.T) {
	s := newS(t, func(c *Config) { c.MinBufRTTs = 1; c.InitialRTT = sim.Millisecond })
	s.Write(0, make([]byte, 1000))
	s.Close(0) // data packet seq 0 plus a FIN at seq 1
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	s.HandlePacket(kernel.Jiffy, 3, fb(packet.TypeJoin, 0))
	s.Outgoing()
	// Member 3 joined expecting seq 0: release of seq 0 is unsafe.
	s.Tick(5 * kernel.Jiffy)
	if s.WindowBytes() == 0 {
		t.Fatal("H-RMC released data a member had not confirmed")
	}
	probe := findOut(s.Outgoing(), packet.TypeProbe)
	if probe == nil {
		t.Fatal("no PROBE for the lacking member")
	}
	if probe.Dest.Multicast || probe.Dest.Node != 3 {
		t.Error("PROBE not unicast to the lacking member")
	}
	if probe.Pkt.Seq != 0 {
		t.Errorf("PROBE seq = %d, want 0", probe.Pkt.Seq)
	}
	if s.Stats().ProbesSent != 1 || s.Stats().ReleaseStalls == 0 {
		t.Errorf("probe/stall stats: %+v", s.Stats())
	}
	// An UPDATE confirming receipt of everything (data + FIN) unblocks
	// the release.
	s.HandlePacket(6*kernel.Jiffy, 3, fb(packet.TypeUpdate, 2))
	s.Tick(7 * kernel.Jiffy)
	if s.WindowBytes() != 0 {
		t.Error("release still blocked after covering UPDATE")
	}
	if s.Stats().UpdatesReceived != 1 {
		t.Error("UPDATE not counted")
	}
}

// ReleaseStalls counts stall episodes, not how often the driver looks at
// one: a window blocked on one member across many ticks (and release
// attempts on feedback) is one stall, whatever the driver's cadence.
func TestReleaseStallsCountEpisodes(t *testing.T) {
	for _, step := range []sim.Time{kernel.Jiffy, sim.Millisecond} {
		s := newS(t, func(c *Config) { c.MinBufRTTs = 1; c.InitialRTT = sim.Millisecond })
		s.Write(0, make([]byte, 1000))
		s.Close(0)
		s.Tick(kernel.Jiffy)
		s.HandlePacket(kernel.Jiffy, 3, fb(packet.TypeJoin, 0))
		for now := 5 * kernel.Jiffy; now < 15*kernel.Jiffy; now += step {
			s.Tick(now)
			s.TryRelease(now)
			s.Outgoing()
		}
		if got := s.Stats().ReleaseStalls; got != 1 {
			t.Errorf("driver stepping %v: one blocked window counted as %d stalls", step, got)
		}
	}
}

// ReleaseBlockedMicros is the time a full, fully transmitted window waits
// on receivers: none while unsent data waits on the bucket, then exactly
// the stretch until the UPDATE that frees it, however often release is
// tried in between.
func TestReleaseBlockedMicros(t *testing.T) {
	s := newS(t, func(c *Config) { c.ExpectedReceivers = 1 })
	s.HandlePacket(0, 3, fb(packet.TypeJoin, 0))
	if n := s.Write(0, make([]byte, 100_000)); n != 64*1000 {
		t.Fatalf("Write = %d, want a full 64-packet window", n)
	}
	// At 1 MB/s the window takes several jiffies to go out.
	now := sim.Time(0)
	for _, e := s.wnd.FirstUnsent(); e != nil; _, e = s.wnd.FirstUnsent() {
		if now > 20*kernel.Jiffy {
			t.Fatal("window never fully transmitted")
		}
		if got := s.Stats().ReleaseBlockedMicros; got != 0 {
			t.Fatalf("%v: %d µs booked while data waits on the bucket", now, got)
		}
		now += kernel.Jiffy
		s.Tick(now)
		s.TryRelease(now)
		s.Outgoing()
	}
	if now < 3*kernel.Jiffy {
		t.Fatalf("window went out in %v: the bucket never held data back", now)
	}
	s.TryRelease(now + 1000*sim.Microsecond + 600)
	s.HandlePacket(now+3250*sim.Microsecond+400, 3, fb(packet.TypeUpdate, 64))
	s.TryRelease(now + 3250*sim.Microsecond + 400)
	if s.WindowBytes() != 0 {
		t.Fatal("covering UPDATE did not free the window")
	}
	s.TryRelease(now + 10*kernel.Jiffy)
	if got := s.Stats().ReleaseBlockedMicros; got != 3250 {
		t.Errorf("ReleaseBlockedMicros = %d, want 3250", got)
	}
}

func TestProbeRateLimited(t *testing.T) {
	s := newS(t, func(c *Config) { c.MinBufRTTs = 1; c.InitialRTT = sim.Millisecond })
	s.Write(0, make([]byte, 1000))
	s.Close(0)
	s.Tick(kernel.Jiffy)
	s.HandlePacket(kernel.Jiffy, 3, fb(packet.TypeJoin, 0))
	s.Outgoing()
	for i := 2; i < 6; i++ {
		s.Tick(sim.Time(i) * kernel.Jiffy)
	}
	probes := 0
	for _, o := range s.Outgoing() {
		if o.Pkt.Type == packet.TypeProbe {
			probes++
		}
	}
	// RTO with a 1ms RTT is clamped to ≥1ms but stays well under the
	// 40ms window here, so a couple of probes are fine — a probe per
	// tick is not.
	if probes >= 4 {
		t.Errorf("probe flood: %d probes in 4 ticks", probes)
	}
	if probes == 0 {
		t.Error("no probes at all")
	}
}

func TestFigure3MetricRMCMode(t *testing.T) {
	s := newS(t, func(c *Config) { c.Mode = RMC; c.MinBufRTTs = 1; c.InitialRTT = sim.Millisecond })
	s.Write(0, make([]byte, 2000))
	s.Close(0) // seq 0, seq 1 data + seq 2 FIN
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	// One member whose state only covers seq 0.
	s.HandlePacket(kernel.Jiffy, 3, fb(packet.TypeJoin, 0))
	s.HandlePacket(kernel.Jiffy, 3, fb(packet.TypeUpdate, 1))
	s.Outgoing()
	s.Tick(10 * kernel.Jiffy)
	st := s.Stats()
	if st.Releases != 3 {
		t.Fatalf("Releases = %d, want 3", st.Releases)
	}
	if st.ReleasesCompleteInfo != 1 {
		t.Errorf("ReleasesCompleteInfo = %d, want 1 (member covers seq 0 only)", st.ReleasesCompleteInfo)
	}
	if got := st.ReleaseInfoRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("ReleaseInfoRatio = %v, want 1/3", got)
	}
}

func TestControlWarningCutsRate(t *testing.T) {
	s := newS(t, nil)
	s.Write(0, make([]byte, 50_000))
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		now += kernel.Jiffy
		s.Tick(now)
		s.Outgoing()
	}
	r0 := s.Rate(now)
	ctrl := fb(packet.TypeControl, 5)
	ctrl.RateAdv = uint32(r0 / 4)
	s.HandlePacket(now, 2, ctrl)
	if got := s.Rate(now); got != r0/4 {
		t.Errorf("rate after suggested cut = %v, want %v", got, r0/4)
	}
	if s.Stats().RateRequestsReceived != 1 {
		t.Error("rate request not counted")
	}
}

func TestControlUrgentStopsTransmission(t *testing.T) {
	s := newS(t, nil)
	s.Write(0, make([]byte, 50_000))
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	urgent := fb(packet.TypeControl, 1)
	urgent.Flags = packet.FlagURG
	now := 2 * kernel.Jiffy
	s.HandlePacket(now, 2, urgent)
	if s.Stats().UrgentReceived != 1 {
		t.Error("urgent not counted")
	}
	// For two RTTs (20ms = 2 jiffies) nothing is transmitted.
	s.Tick(now + kernel.Jiffy)
	if got := len(dataOuts(s.Outgoing())); got != 0 {
		t.Errorf("sent %d data packets during urgent stop", got)
	}
	// After the stop, transmission resumes (from the minimum rate).
	var resumed bool
	for i := sim.Time(3); i < 10; i++ {
		s.Tick(now + i*kernel.Jiffy)
		if len(dataOuts(s.Outgoing())) > 0 {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Error("transmission did not resume after the urgent stop")
	}
}

func TestKeepaliveOnIdleWithBackoff(t *testing.T) {
	s := newS(t, nil)
	s.Write(0, make([]byte, 1000))
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	// No more data: keepalives with exponential backoff.
	now := kernel.Jiffy
	var kaTimes []sim.Time
	for i := 0; i < 600; i++ {
		now += kernel.Jiffy
		s.Tick(now)
		for _, o := range s.Outgoing() {
			if o.Pkt.Type == packet.TypeKeepalive {
				kaTimes = append(kaTimes, now)
				if o.Pkt.Seq != 0 {
					t.Errorf("keepalive carries seq %d, want 0 (last sent)", o.Pkt.Seq)
				}
			}
		}
	}
	if len(kaTimes) < 3 {
		t.Fatalf("only %d keepalives in 6s of idle", len(kaTimes))
	}
	// Gaps grow and saturate at 2s.
	for i := 2; i < len(kaTimes); i++ {
		g1 := kaTimes[i] - kaTimes[i-1]
		g0 := kaTimes[i-1] - kaTimes[i-2]
		if g1 < g0 {
			t.Errorf("keepalive gaps shrank: %v then %v", g0, g1)
		}
		if g1 > 2*sim.Second {
			t.Errorf("keepalive gap %v exceeds the 2s cap", g1)
		}
	}
	if s.Stats().KeepalivesSent != int64(len(kaTimes)) {
		t.Error("keepalive counter mismatch")
	}
}

func TestNoKeepaliveWhileRatePacing(t *testing.T) {
	// At a very low rate the sender waits several ticks between packets;
	// those waits are pacing, not idleness. The application keeps the
	// window supplied so unsent data exists throughout.
	s := newS(t, func(c *Config) {
		c.Rate = rate.Config{MinRate: 20_000, MaxRate: 20_000, MSS: 1020}
	})
	now := sim.Time(0)
	sent := 0
	for i := 0; i < 100; i++ {
		s.Write(now, make([]byte, 5000))
		now += kernel.Jiffy
		s.Tick(now)
		for _, o := range s.Outgoing() {
			if o.Pkt.Type == packet.TypeKeepalive {
				t.Fatalf("keepalive at %v while pacing data", now)
			}
			if o.Pkt.Type == packet.TypeData {
				sent += o.Pkt.WireSize()
			}
		}
	}
	// One second at 20 KB/s: roughly 20 KB on the wire.
	if sent < 15_000 || sent > 25_000 {
		t.Errorf("paced %d bytes in 1s at 20KB/s", sent)
	}
}

func TestCloseAppendsFINAndDone(t *testing.T) {
	s := newS(t, func(c *Config) { c.MinBufRTTs = 1; c.InitialRTT = sim.Millisecond; c.Mode = RMC })
	s.Write(0, make([]byte, 1500))
	s.Close(0)
	s.Tick(kernel.Jiffy)
	outs := dataOuts(s.Outgoing())
	if len(outs) != 3 {
		t.Fatalf("sent %d packets, want 2 data + 1 FIN", len(outs))
	}
	last := outs[2].Pkt
	if !last.FIN() || len(last.Payload) != 0 {
		t.Errorf("last packet FIN=%v len=%d", last.FIN(), len(last.Payload))
	}
	if s.Done() {
		t.Error("Done before release")
	}
	s.Tick(20 * kernel.Jiffy)
	if !s.Done() {
		t.Error("not Done after full release")
	}
}

func TestCloseWithFullWindowDefersFIN(t *testing.T) {
	s := New(Config{
		SndBuf: 2 * (1000 + packet.HeaderSize), MSS: 1000, Mode: RMC,
		MinBufRTTs: 1, InitialRTT: sim.Millisecond,
		Rate: rate.Config{MinRate: 1e6, MaxRate: 1e8, MSS: 1000},
	})
	if s.Write(0, make([]byte, 2000)) != 2000 {
		t.Fatal("setup write failed")
	}
	s.Close(0) // window is full: FIN must wait
	if s.Done() {
		t.Error("Done with FIN still pending")
	}
	now := sim.Time(0)
	for i := 0; i < 40 && !s.Done(); i++ {
		now += kernel.Jiffy
		s.Tick(now)
		s.Outgoing()
	}
	if !s.Done() {
		t.Error("FIN never flushed after window drained")
	}
}

func TestWriteAfterClosePanics(t *testing.T) {
	s := newS(t, nil)
	s.Close(0)
	defer func() {
		if recover() == nil {
			t.Error("Write after Close did not panic")
		}
	}()
	s.Write(0, []byte{1})
}

func TestExpectedReceiversHoldsRelease(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.MinBufRTTs = 1
		c.InitialRTT = sim.Millisecond
		c.ExpectedReceivers = 2
	})
	s.Write(0, make([]byte, 1000))
	s.Close(0) // data seq 0 + FIN seq 1
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	s.Tick(10 * kernel.Jiffy) // no receivers at all: hold
	if s.WindowBytes() == 0 {
		t.Fatal("released with zero of two expected receivers")
	}
	s.HandlePacket(10*kernel.Jiffy, 1, fb(packet.TypeJoin, 2))
	s.Tick(11 * kernel.Jiffy)
	if s.WindowBytes() == 0 {
		t.Fatal("released with one of two expected receivers")
	}
	s.HandlePacket(11*kernel.Jiffy, 2, fb(packet.TypeJoin, 2))
	s.Tick(12 * kernel.Jiffy)
	if s.WindowBytes() != 0 {
		t.Error("release still held after both receivers joined past the data")
	}
}

func TestMulticastProbeExtension(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.MinBufRTTs = 1
		c.InitialRTT = sim.Millisecond
		c.MulticastProbeThreshold = 3
	})
	s.Write(0, make([]byte, 1000))
	s.Close(0)
	s.Tick(kernel.Jiffy)
	for n := packet.NodeID(1); n <= 4; n++ {
		s.HandlePacket(kernel.Jiffy, n, fb(packet.TypeJoin, 0))
	}
	s.Outgoing()
	s.Tick(5 * kernel.Jiffy)
	outs := s.Outgoing()
	var uni, multi int
	for _, o := range outs {
		if o.Pkt.Type != packet.TypeProbe {
			continue
		}
		if o.Dest.Multicast {
			multi++
		} else {
			uni++
		}
	}
	if multi != 1 || uni != 0 {
		t.Errorf("probes: %d multicast %d unicast, want 1,0", multi, uni)
	}
	if s.Stats().MulticastProbesSent != 1 {
		t.Error("multicast probe not counted")
	}
}

func TestEarlyProbeExtension(t *testing.T) {
	s := newS(t, func(c *Config) {
		c.MinBufRTTs = 10
		c.InitialRTT = 20 * sim.Millisecond
		c.EarlyProbeRTTs = 3
	})
	s.Write(0, make([]byte, 1000))
	s.Close(0)
	s.Tick(kernel.Jiffy) // sent at 10ms; deadline at 210ms; early probe from 150ms
	s.HandlePacket(kernel.Jiffy, 1, fb(packet.TypeJoin, 0))
	s.Outgoing()
	s.Tick(16 * kernel.Jiffy) // 160ms: inside the early-probe lead
	outs := s.Outgoing()
	if findOut(outs, packet.TypeProbe) == nil {
		t.Error("no early probe inside the lead window")
	}
	if s.WindowBytes() == 0 {
		t.Error("early probe released data ahead of the deadline")
	}
}

func TestJoinSamplesRTT(t *testing.T) {
	s := newS(t, func(c *Config) { c.InitialRTT = 500 * sim.Millisecond })
	s.Write(0, make([]byte, 1000))
	s.Tick(kernel.Jiffy)
	s.Outgoing()
	// JOIN arrives 30ms after the data packet went out, expecting seq 1:
	// the triggering packet is seq 0, sent once.
	s.HandlePacket(kernel.Jiffy+30*sim.Millisecond, 1, fb(packet.TypeJoin, 1))
	if got := s.RTT(); got != 30*sim.Millisecond {
		t.Errorf("RTT after JOIN sample = %v, want 30ms", got)
	}
}

func TestProbeResponseSamplesRTT(t *testing.T) {
	s := newS(t, func(c *Config) { c.MinBufRTTs = 1; c.InitialRTT = 40 * sim.Millisecond })
	s.Write(0, make([]byte, 1000))
	s.Close(0)
	s.Tick(kernel.Jiffy)
	s.HandlePacket(kernel.Jiffy, 1, fb(packet.TypeJoin, 0))
	s.Outgoing()
	// Deadline 10+400ms; probe goes out on the first tick past it.
	var probeAt sim.Time
	now := kernel.Jiffy
	for i := 0; i < 100 && probeAt == 0; i++ {
		now += kernel.Jiffy
		s.Tick(now)
		if findOut(s.Outgoing(), packet.TypeProbe) != nil {
			probeAt = now
		}
	}
	if probeAt == 0 {
		t.Fatal("no probe emitted")
	}
	s.HandlePacket(probeAt+20*sim.Millisecond, 1, fb(packet.TypeUpdate, 1))
	// Asymmetric estimator: downward samples move slowly; exact value is
	// not required, movement is.
	if got := s.RTT(); got >= 40*sim.Millisecond {
		t.Errorf("RTT did not absorb the probe sample: %v", got)
	}
}
