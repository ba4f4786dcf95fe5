package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fec"
	"repro/internal/kernel"
	"repro/internal/membership"
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/repair"
	"repro/internal/sender"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/udpmcast"
	"repro/internal/window"
)

// The layer ledger: each layer's public functions in a tight loop, from
// outside the layer, on one goroutine with a virtual clock where the
// layer is a machine. Every figure is per packet (1400-byte payload) or
// per operation, in nanoseconds and in runtime.MemStats mallocs, so the
// traced run can add the layers on a workload's path and compare the sum
// with what a packet costs end to end.

const ledgerPayload = flowMSS

// loopCost is one timed loop's result.
type loopCost struct{ ns, allocs float64 }

// timeLoop calls fn, which performs and returns a number of operations,
// until at least dur has passed, and returns the cost per operation.
func timeLoop(dur time.Duration, fn func() int) loopCost {
	fn() // fill pools and caches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := 0
	for time.Since(start) < dur {
		ops += fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return loopCost{
		ns:     float64(elapsed) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

func dataPacket(seq uint32) *packet.Packet {
	p := packet.GetBuf(ledgerPayload)
	p.Header = packet.Header{Type: packet.TypeData, Seq: seq, Length: ledgerPayload, SrcPort: 100, DstPort: 101}
	p.Payload = p.Payload[:ledgerPayload]
	return p
}

// runLedger times every ledger loop for about dur each. Loops that need
// loopback multicast report 0 where it is unavailable.
func runLedger(dur time.Duration) map[string]float64 {
	out := make(map[string]float64)
	ledgerPacket(dur, out)
	ledgerWindow(dur, out)
	ledgerSmall(dur, out)
	ledgerFec(dur, out)
	ledgerSender(dur, out)
	ledgerReceiver(dur, out)
	ledgerRepair(dur, out)
	ledgerHub(dur, out)
	ledgerUDP(dur, out)
	ledgerGroupUDP(dur, out)
	for _, d := range ledgerMetrics {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = 0
		}
	}
	return out
}

const loopBatch = 256

func ledgerPacket(dur time.Duration, out map[string]float64) {
	p := dataPacket(7)
	var wire []byte
	enc := timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			wire, _ = p.Encode(wire[:0])
		}
		return loopBatch
	})
	var q packet.Packet
	dec := timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			if err := packet.DecodeBorrow(&q, wire); err != nil {
				panic(err)
			}
		}
		return loopBatch
	})
	pool := timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			packet.Put(packet.GetBuf(ledgerPayload))
		}
		return loopBatch
	})
	packet.Put(p)
	out["packet.encode_ns_pkt"] = enc.ns
	out["packet.decode_borrow_ns_pkt"] = dec.ns
	out["packet.pool_cycle_ns_pkt"] = pool.ns
	out["packet.allocs_pkt"] = enc.allocs + dec.allocs + pool.allocs
}

func ledgerWindow(dur time.Duration, out map[string]float64) {
	sw := window.NewSendWindow(1<<20, 0)
	out["window.send_insert_release_ns_pkt"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			if _, err := sw.Insert(dataPacket(0)); err != nil {
				panic(err)
			}
			sw.Front().Tries = 1
			packet.Put(sw.Release().Pkt)
		}
		return loopBatch
	}).ns

	buf := make([]byte, 4*ledgerPayload)
	rw := window.NewReceiveWindow(256, 0)
	rw.SetRecycle(true)
	seq := uint32(0)
	out["window.recv_insert_read_ns_pkt"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			rw.Insert(dataPacket(seq))
			seq++
			for rw.Buffered() > 0 {
				rw.Read(buf)
			}
		}
		return loopBatch
	}).ns

	ow := window.NewReceiveWindow(256, 0)
	ow.SetRecycle(true)
	oseq := uint32(0)
	out["window.recv_ooo_ns_pkt"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i += 2 {
			ow.Insert(dataPacket(oseq + 1)) // ahead of a hole
			ow.Insert(dataPacket(oseq))     // the hole
			oseq += 2
			for ow.Buffered() > 0 {
				ow.Read(buf)
			}
		}
		return loopBatch
	}).ns
}

// ledgerSmall covers the two per-feedback structures: the membership
// table (16 members, the lossy workloads' 4 and hrmcd's typical group
// are both below it) and the rate controller's token bucket.
func ledgerSmall(dur time.Duration, out map[string]float64) {
	const members = 16
	var tbl membership.Table
	for i := 0; i < members; i++ {
		tbl.Add(packet.NodeID(i+1), 0)
	}
	n := 0
	out["membership.update_ns_op"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			n++
			tbl.Update(packet.NodeID(n%members+1), seqspace.Seq(n), sim.Time(n))
		}
		return loopBatch
	}).ns
	var sink seqspace.Seq
	out["membership.min_next_ns_op"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			s, _ := tbl.MinNextExpected()
			sink += s
		}
		return loopBatch
	}).ns
	_ = sink

	rc := rate.New(rate.Config{MinRate: minRateBps, MaxRate: maxRateBps, MSS: flowMSS})
	now := sim.Time(0)
	out["rate.allowance_spend_ns_op"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			now += 50 * sim.Microsecond
			if rc.Allowance(now) >= ledgerPayload+packet.HeaderSize {
				rc.Spend(ledgerPayload + packet.HeaderSize)
			}
		}
		return loopBatch
	}).ns
}

func ledgerFec(dur time.Duration, out map[string]float64) {
	const k = 8
	payload := make([]byte, ledgerPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	enc := fec.NewEncoder(k)
	seq := seqspace.Seq(0)
	var parity *packet.Packet
	out["fec.encode_ns_pkt"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			if p := enc.Add(seq, 0, payload); p != nil {
				packet.Put(parity)
				parity = p
			}
			seq++
		}
		return loopBatch
	}).ns
	// parity covers [base, base+k) of identical payloads; drop one member.
	base := seqspace.Seq(parity.Seq)
	lookup := func(s seqspace.Seq) ([]byte, uint8, bool) {
		if s == base+3 {
			return nil, 0, false
		}
		return payload, 0, true
	}
	var dec fec.Decoder
	out["fec.recover_ns_group"] = timeLoop(dur, func() int {
		for i := 0; i < 32; i++ {
			p, ok := dec.Recover(parity, lookup)
			if !ok {
				panic("fec: group did not recover")
			}
			packet.Put(p)
		}
		return 32
	}).ns
	packet.Put(parity)
}

// ledgerSender drives the sender machine the way a flow does — release
// what the member acknowledged, Write until the window is full, Tick,
// drain Outgoing, Recycle, one virtual jiffy per round, an UPDATE from
// the one member after each — and, for the retransmit figure, a NAK for
// everything the round sent.
func ledgerSender(dur time.Duration, out map[string]float64) {
	newSender := func() *sender.Sender {
		s := sender.New(sender.Config{
			LocalPort: 100, RemotePort: 101, SndBuf: flowBuf, MSS: flowMSS,
			MinBufRTTs: 1, InitialRTT: sim.Millisecond, ExpectedReceivers: 1,
			Rate: rate.Config{MinRate: maxRateBps, MaxRate: maxRateBps, MSS: flowMSS},
		})
		s.HandlePacket(0, 1, &packet.Packet{Header: packet.Header{Type: packet.TypeJoin}})
		s.Recycle(s.Outgoing())
		return s
	}
	rec := make([]byte, 64*ledgerPayload)
	update := &packet.Packet{Header: packet.Header{Type: packet.TypeUpdate}}
	now := sim.Time(0)
	// round sends what the window admits and returns the first-
	// transmission DATA packets it put out: how many, and the first's Seq.
	round := func(s *sender.Sender) (sent int, first uint32) {
		now += kernel.Jiffy
		s.TryRelease(now)
		for s.Write(now, rec) == len(rec) {
		}
		s.Tick(now)
		outs := s.Outgoing()
		for _, o := range outs {
			if o.Pkt.Type == packet.TypeData && o.Pkt.Tries == 0 {
				if sent == 0 {
					first = o.Pkt.Seq
				}
				sent++
			}
		}
		s.Recycle(outs)
		return sent, first
	}
	ack := func(s *sender.Sender, next uint32) {
		update.Seq = next
		s.HandlePacket(now, 1, update)
		s.Recycle(s.Outgoing())
	}

	s := newSender()
	c := timeLoop(dur, func() int {
		sent, first := round(s)
		ack(s, first+uint32(sent))
		return sent
	})
	s.ReleaseBuffers()
	out["sender.machine_ns_pkt"] = c.ns
	out["sender.machine_allocs_pkt"] = c.allocs

	// Only the NAK handling and the retransmitting Tick are timed.
	s = newSender()
	nak := &packet.Packet{Header: packet.Header{Type: packet.TypeNak}}
	var timed time.Duration
	var resent int
	for timed < dur {
		sent, first := round(s)
		now += kernel.Jiffy
		nak.Seq, nak.Length = first, uint32(sent)
		t0 := time.Now()
		s.HandlePacket(now, 1, nak)
		s.Tick(now)
		outs := s.Outgoing()
		timed += time.Since(t0)
		for _, o := range outs {
			if o.Pkt.Type == packet.TypeData && o.Pkt.Tries > 0 {
				resent++
			}
		}
		s.Recycle(outs)
		ack(s, first+uint32(sent))
	}
	s.ReleaseBuffers()
	out["sender.retransmit_ns_pkt"] = ratio(float64(timed), float64(resent))
}

// ledgerReceiver feeds the receiver machine pool-owned DATA the way the
// session's receive loop does and reads it back out; the gap path
// delays one packet in a hundred by eight, so a NAK is raised and the
// hole filled.
func ledgerReceiver(dur time.Duration, out map[string]float64) {
	buf := make([]byte, 8*ledgerPayload)
	run := func(holes bool) loopCost {
		r := receiver.New(receiver.Config{
			LocalAddr: 1, LocalPort: 101, RemotePort: 100, RcvBuf: flowBuf, MSS: flowMSS,
			RecyclePackets: true,
		})
		now := sim.Time(0)
		seq := uint32(0)
		feed := func(s uint32) {
			p := dataPacket(s)
			p.RateAdv = 1e6
			if retained, _ := r.HandleFrom(now, 0, p); !retained {
				packet.Put(p)
			}
			for r.Buffered() > 0 {
				r.Read(now, buf)
			}
			for _, q := range r.Outgoing() {
				packet.Put(q)
			}
		}
		c := timeLoop(dur, func() int {
			for i := 0; i < 100; i++ {
				now += 10 * sim.Microsecond
				switch {
				case holes && i == 50:
					// held back: delivered after the next eight
				case holes && i == 58:
					feed(seq + uint32(i))
					feed(seq + 50)
				default:
					feed(seq + uint32(i))
				}
			}
			seq += 100
			r.Advance(now)
			return 100
		})
		r.ReleaseBuffers()
		return c
	}
	c := run(false)
	out["receiver.machine_ns_pkt"] = c.ns
	out["receiver.machine_allocs_pkt"] = c.allocs
	out["receiver.gap_path_ns_pkt"] = run(true).ns
}

// ledgerRepair is a repair head's per-packet work: retain every
// delivered packet and answer a HEAD_NAK for one packet in eight.
func ledgerRepair(dur time.Duration, out map[string]float64) {
	h := repair.NewHead(0, repair.Config{}, true, &stats.Receiver{})
	seq := uint32(0)
	now := sim.Time(0)
	out["repair.retain_answer_ns_pkt"] = timeLoop(dur, func() int {
		for i := 0; i < loopBatch; i++ {
			p := dataPacket(seq)
			h.Retain(p)
			packet.Put(p)
			if seq%8 == 7 {
				now += sim.Millisecond
				want := seqspace.Seq(seq - 4)
				if !h.Handled(now, want) {
					if _, ok := h.Retained(want); !ok {
						panic("repair: retained packet missing")
					}
				}
			}
			seq++
		}
		return loopBatch
	}).ns
	h.ReleaseAll()
}

// ledgerHub is one hub hop: a 64-envelope multicast SendBatch to one
// other endpoint, drained and released.
func ledgerHub(dur time.Duration, out map[string]float64) {
	hub := transport.NewHub()
	a := transport.Batched(hub.Endpoint())
	b := transport.Batched(hub.Endpoint())
	defer a.Close()
	defer b.Close()
	const batch = 64
	env := make([]transport.Envelope, batch)
	for i := range env {
		env[i] = transport.Envelope{Pkt: dataPacket(uint32(i)), Multicast: true}
	}
	buf := make([]transport.Envelope, batch)
	c := timeLoop(dur, func() int {
		if err := a.SendBatch(env); err != nil {
			panic(err)
		}
		got := 0
		for got < batch {
			n, err := b.RecvBatch(buf)
			if err != nil {
				panic(err)
			}
			transport.ReleaseEnvelopes(buf[:n])
			got += n
		}
		return batch
	})
	for i := range env {
		packet.Put(env[i].Pkt)
	}
	out["transport.hub_ns_pkt"] = c.ns
	out["transport.hub_allocs_pkt"] = c.allocs
}

// blastResult is one saturating transfer between two UDP endpoints.
type blastResult struct {
	sendNsPkt, recvNsPkt, dgramsPerSyscall, mbS float64
}

// blast sends env over and over for dur while a reader drains rcv and
// counts what arrives. The sender's cost is the wall time inside
// SendBatch per packet sent (a UDP send does not block). The sender
// outruns the receive path, which drops the excess like any full socket
// buffer, so the receive path's cost is the wall time per packet it got
// through: its throughput while it is the bottleneck. (Process CPU time
// cannot split the two: loopback delivery runs in softirq context and
// is charged to neither side.)
func blast(dur time.Duration, env []transport.Envelope, send func([]transport.Envelope) error, rcv transport.BatchTransport) blastResult {
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]transport.Envelope, 64)
		for {
			n, err := rcv.RecvBatch(buf)
			if err != nil {
				return
			}
			received.Add(int64(n))
			transport.ReleaseEnvelopes(buf[:n])
		}
	}()
	io0 := transport.IOStats()
	start := time.Now()
	var inSend time.Duration
	var sent int64
	for time.Since(start) < dur {
		t0 := time.Now()
		if err := send(env); err == nil {
			sent += int64(len(env))
		}
		inSend += time.Since(t0)
		runtime.Gosched() // let the receive side run on a one-core host
	}
	wall := time.Since(start)
	got := received.Load()
	io1 := transport.IOStats()
	_ = rcv.Close()
	<-done
	return blastResult{
		sendNsPkt:        ratio(float64(inSend), float64(sent)),
		recvNsPkt:        ratio(float64(wall), float64(got)),
		dgramsPerSyscall: ratio(float64(io1.SentDatagrams-io0.SentDatagrams), float64(io1.SendSyscalls-io0.SendSyscalls)),
		mbS:              ratio(float64(got*(ledgerPayload+packet.HeaderSize))/mb, wall.Seconds()),
	}
}

func ledgerEnvelopes(n int) []transport.Envelope {
	env := make([]transport.Envelope, n)
	for i := range env {
		env[i] = transport.Envelope{Pkt: dataPacket(uint32(i)), Multicast: true}
	}
	return env
}

// ledgerAddr is multicast address number i and a UDP port for ledger
// sockets, apart from the workloads' (which derive theirs from the
// seed) and from another process's ledger.
func ledgerAddr(i int) (ip string, port int) {
	h := mix64(uint64(os.Getpid()))
	ip = fmt.Sprintf("239.%d.%d.%d", 251+h%4, (h>>8)%256, 1+((h>>16)+uint64(i))%250)
	return ip, 30000 + int((h>>24)%2000)
}

// ledgerUDP blasts 64-envelope batches through a per-flow sender
// transport to one receiver transport on loopback multicast.
func ledgerUDP(dur time.Duration, out map[string]float64) {
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		return
	}
	ip, port := ledgerAddr(0)
	addr := fmt.Sprintf("%s:%d", ip, port)
	rt, err := udpmcast.NewReceiverTransport(addr, lo)
	if err != nil {
		return
	}
	st, err := udpmcast.NewSenderTransport(addr, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
	if err != nil {
		rt.Close()
		return
	}
	defer st.Close()
	env := ledgerEnvelopes(64)
	res := blast(dur, env, st.SendBatch, rt)
	for i := range env {
		packet.Put(env[i].Pkt)
	}
	out["udpmcast.send_ns_pkt"] = res.sendNsPkt
	out["udpmcast.recv_ns_pkt"] = res.recvNsPkt
	out["udpmcast.dgrams_per_syscall"] = res.dgramsPerSyscall
	out["udpmcast.wire_mb_s"] = res.mbS
}

// ledgerGroupUDP does the same through shared group transports: one
// shard registered on 16 groups sends round-robin to another shard
// joined on all 16, which demultiplexes on the destination address.
func ledgerGroupUDP(dur time.Duration, out map[string]float64) {
	const groups = 16
	_, port := ledgerAddr(0)
	snd, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: port + 1, Loopback: true})
	if err != nil {
		return
	}
	defer snd.Close()
	rcv, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: port + 1, Loopback: true})
	if err != nil {
		return
	}
	env := ledgerEnvelopes(64)
	defer func() {
		for i := range env {
			packet.Put(env[i].Pkt)
		}
	}()
	gids := make([]transport.GroupID, groups)
	for g := range gids {
		ip, _ := ledgerAddr(1 + g)
		gid, err := snd.Register(ip)
		if err == nil {
			_, err = rcv.Join(ip)
		}
		if err != nil {
			rcv.Close()
			return
		}
		gids[g] = gid
	}
	// Runs of four per group: a staged batch carries a few packets of
	// each of several flows.
	for i := range env {
		env[i].Group = gids[(i/4)%groups]
	}
	res := blast(dur, env, snd.SendBatch, rcv)
	out["udpmcast.group_send_ns_pkt"] = res.sendNsPkt
	out["udpmcast.group_demux_ns_pkt"] = res.recvNsPkt
}
