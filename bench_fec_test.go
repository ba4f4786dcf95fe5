package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/netsim"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// gapSink collects gap-filled trace events: each carries the time from
// gap detection to repair (parity rebuild or retransmission arrival) as
// its value, so the mean is the receiver's loss-recovery latency.
type gapSink struct {
	mu    sync.Mutex
	total sim.Time
	n     int64
}

func (s *gapSink) Emit(e trace.Event) {
	if e.Kind != trace.GapFilled {
		return
	}
	s.mu.Lock()
	s.total += sim.Time(e.Value)
	s.n++
	s.mu.Unlock()
}

func (s *gapSink) meanMs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(sim.Millisecond)
}

// BenchmarkFecCrossover measures what proactive parity buys over the
// pure selective-NAK path: per-loss recovery latency (the "recovery-ms"
// metric — NAK recovery costs an RTT plus timer grain, parity recovery
// only the rest of the group's serialization) and the allocation cost
// of running the parity pipeline, at 1% and 5% loss, in three
// harnesses: the discrete-event netsim, the live session datapath over
// a lossy in-memory hub, and the same live datapath over real UDP
// multicast on the loopback interface (internal/udpmcast) with
// downlink loss injected by a wrapper transport. The udp arm skips
// itself where loopback multicast is unavailable. scripts/bench.sh
// writes the series to BENCH_7.json and gates the ≥2× latency win and
// the ≤1.2× allocation ceiling.
func BenchmarkFecCrossover(b *testing.B) {
	for _, loss := range []float64{0.01, 0.05} {
		for _, fecK := range []int{0, 8} {
			mode := "nak"
			if fecK > 0 {
				mode = "fec"
			}
			name := fmt.Sprintf("loss=%dpct/%s", int(loss*100+0.5), mode)
			b.Run("netsim/"+name, func(b *testing.B) {
				benchNetsimCrossover(b, loss, fecK)
			})
			b.Run("live/"+name, func(b *testing.B) {
				benchLiveCrossover(b, loss, fecK)
			})
			b.Run("udp/"+name, func(b *testing.B) {
				benchUdpCrossover(b, loss, fecK)
			})
		}
	}
}

// benchNetsimCrossover runs one 1 MiB transfer per iteration through
// the simulated 10 Mbps WAN at the given loss rate, varying the seed
// per iteration, and reports the mean gap-recovery latency.
func benchNetsimCrossover(b *testing.B, loss float64, fecK int) {
	const size = 1 << 20
	sink := &gapSink{}
	g := netsim.Group{Name: "bench", Delay: 20 * sim.Millisecond, Loss: loss}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := netsim.DefaultConfig(netsim.Rate10Mbps, uint64(17+i))
		net := netsim.New(cfg)
		rcfg := rate.DefaultConfig()
		rcfg.MaxRate = netsim.Rate10Mbps
		s := sender.New(sender.Config{
			SndBuf: 256 << 10, Mode: sender.HRMC, Rate: rcfg,
			ExpectedReceivers: 1, FECGroupSize: fecK,
		})
		net.AddSender(s, app.NewMemorySource(size))
		net.AddReceiver(receiver.New(receiver.Config{
			RcvBuf: 256 << 10, Mode: receiver.HRMC,
			FECGroupSize: fecK, Trace: sink,
		}), g, app.MemorySink{})
		res := net.Run(600 * sim.Second)
		if !res.Completed {
			b.Fatalf("netsim transfer (loss=%.2f fec=%d) did not complete", loss, fecK)
		}
	}
	b.StopTimer()
	b.ReportMetric(sink.meanMs(), "recovery-ms")
}

// benchLiveCrossover runs one 256 KiB transfer per iteration through
// the real concurrent datapath — session tick loop, shared send poller,
// pooled buffers, receive-window recycling — over an in-memory hub
// that drops the given fraction of packets. Alloc figures here are the
// parity pipeline's real cost: parity XOR on send, group cache and
// rebuild on receive.
func benchLiveCrossover(b *testing.B, loss float64, fecK int) {
	const size = 256 << 10
	data := make([]byte, size)
	app.FillPattern(data, 7<<20)
	scratch := make([]byte, 64<<10)
	sink := &gapSink{}
	fast := rate.Config{MinRate: 32e6, MaxRate: 1e9, MSS: 1400}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub := transport.NewHub(transport.WithLoss(loss, int64(29+i)))
		runCrossoverTransfer(b, sink, data, scratch, hub.Endpoint(), hub.Endpoint(), fecK, fast)
	}
	b.StopTimer()
	b.ReportMetric(sink.meanMs(), "recovery-ms")
}

// benchUdpCrossover runs the identical live transfer over real UDP
// multicast on the loopback interface: syscalls, sendmmsg batching, a
// real socket buffer. udpmcast has no built-in loss, so a wrapper
// transport drops each receiver-inbound packet independently (downlink
// loss — the path proactive parity protects; feedback upstream is
// clean). Skips where loopback multicast is unavailable.
func benchUdpCrossover(b *testing.B, loss float64, fecK int) {
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		b.Skipf("no loopback interface: %v", err)
	}
	const size = 256 << 10
	data := make([]byte, size)
	app.FillPattern(data, 9<<20)
	scratch := make([]byte, 64<<10)
	sink := &gapSink{}
	fast := rate.Config{MinRate: 32e6, MaxRate: 1e9, MSS: 1400}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh group port per iteration keeps straggler datagrams
		// from a finished transfer out of the next one.
		group := fmt.Sprintf("239.77.13.9:%d", 40200+i%1024)
		rt, err := udpmcast.NewReceiverTransport(group, lo)
		if err != nil {
			b.Skipf("loopback multicast unavailable: %v", err)
		}
		st, err := udpmcast.NewSenderTransport(group, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
		if err != nil {
			rt.Close()
			b.Skipf("loopback multicast unavailable: %v", err)
		}
		lossy := &lossyUDP{
			Endpoint: rt,
			p:        loss,
			rng:      rand.New(rand.NewSource(int64(43 + i))),
		}
		runCrossoverTransfer(b, sink, data, scratch, lossy, st, fecK, fast)
	}
	b.StopTimer()
	b.ReportMetric(sink.meanMs(), "recovery-ms")
}

// runCrossoverTransfer pushes data through one sender→receiver session
// pair over the given transports, verifying bit-exact delivery. The
// session closes both transports on teardown.
func runCrossoverTransfer(b *testing.B, sink *gapSink, data, scratch []byte, rtr, str transport.Transport, fecK int, fast rate.Config) {
	size := len(data)
	sess := session.New(session.Config{})
	var opts []session.FlowOption
	if fecK > 0 {
		opts = append(opts, session.WithFec(session.FecConfig{Enabled: true, K: fecK}))
	}
	rf, err := sess.OpenReceiver(rtr, receiver.Config{
		LocalPort: 101, RemotePort: 100, RcvBuf: 256 << 10, Trace: sink,
	}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	sf, err := sess.OpenSender(str, sender.Config{
		LocalPort: 100, RemotePort: 101, SndBuf: 256 << 10,
		ExpectedReceivers: 1, MinBufRTTs: 1, Rate: fast,
	}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		total := 0
		for {
			n, err := rf.Read(scratch)
			if n > 0 {
				if !bytes.Equal(scratch[:n], data[total:total+n]) {
					b.Errorf("corrupt delivery at offset %d", total)
					return
				}
			}
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Errorf("read: %v", err)
				break
			}
		}
		if total != size {
			b.Errorf("delivered %d bytes, want %d", total, size)
		}
	}()
	if _, err := sf.Write(data); err != nil {
		b.Errorf("write: %v", err)
	}
	if err := sf.Close(); err != nil {
		b.Errorf("close: %v", err)
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		b.Errorf("session close: %v", err)
	}
}

// lossyUDP injects downlink loss into a real-UDP receiving endpoint:
// each inbound packet is dropped independently with probability p,
// seeded deterministically.
type lossyUDP struct {
	*udpmcast.Endpoint
	p   float64
	mu  sync.Mutex
	rng *rand.Rand
}

func (l *lossyUDP) RecvBatch(buf []transport.Envelope) (int, error) {
	for {
		n, err := l.Endpoint.RecvBatch(buf)
		if n == 0 || err != nil {
			return n, err
		}
		kept := 0
		l.mu.Lock()
		for i := 0; i < n; i++ {
			if l.rng.Float64() < l.p {
				transport.PutPacket(buf[i].Pkt)
				buf[i].Pkt = nil
				continue
			}
			buf[kept] = buf[i]
			kept++
		}
		l.mu.Unlock()
		if kept > 0 {
			return kept, nil
		}
	}
}
