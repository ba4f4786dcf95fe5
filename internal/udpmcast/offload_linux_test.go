//go:build linux && (amd64 || arm64)

package udpmcast

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/transport"
)

// cmsgBuf builds a control-message region holding one cmsg with the
// given level/type/payload, padded to CMSG_SPACE like the kernel does.
func cmsgBuf(level, typ int32, data []byte) []byte {
	l := syscall.SizeofCmsghdr + len(data)
	b := make([]byte, (l+7)&^7)
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level = level
	h.Type = typ
	h.SetLen(l)
	copy(b[syscall.SizeofCmsghdr:], data)
	return b
}

// TestGsoCmsgEncode checks the send-side UDP_SEGMENT control block
// against the kernel ABI: correct level/type/length and a host-order
// u16 payload, parseable by the stdlib cmsg walker.
func TestGsoCmsgEncode(t *testing.T) {
	var c gsoCmsg
	c.set(1420)
	if c.hdr.Level != solUDP || c.hdr.Type != udpSegment {
		t.Fatalf("cmsg level/type = %d/%d, want %d/%d", c.hdr.Level, c.hdr.Type, solUDP, udpSegment)
	}
	if int(c.hdr.Len) != syscall.SizeofCmsghdr+2 {
		t.Fatalf("cmsg len = %d, want %d", c.hdr.Len, syscall.SizeofCmsghdr+2)
	}
	raw := (*[gsoCmsgSpace]byte)(unsafe.Pointer(&c))[:]
	scms, err := syscall.ParseSocketControlMessage(raw)
	if err != nil {
		t.Fatalf("stdlib cannot parse the block: %v", err)
	}
	if len(scms) != 1 {
		t.Fatalf("parsed %d cmsgs, want 1", len(scms))
	}
	got := *(*uint16)(unsafe.Pointer(&scms[0].Data[0]))
	if got != 1420 {
		t.Fatalf("segment size round-trip = %d, want 1420", got)
	}
}

// TestGroSegSizeParse checks the receive-side UDP_GRO decode against
// both payload widths the kernel has shipped (int since 5.2, u16
// before), cmsg walking past a preceding IP_PKTINFO, and rejection of
// absent or malformed regions.
func TestGroSegSizeParse(t *testing.T) {
	i32 := func(v int32) []byte { return (*[4]byte)(unsafe.Pointer(&v))[:] }
	u16 := func(v uint16) []byte { return (*[2]byte)(unsafe.Pointer(&v))[:] }
	pktinfo := cmsgBuf(syscall.IPPROTO_IP, syscall.IP_PKTINFO, make([]byte, 12))

	cases := []struct {
		name string
		buf  []byte
		want int
	}{
		{"int-width", cmsgBuf(solUDP, udpGRO, i32(1420)), 1420},
		{"u16-width", cmsgBuf(solUDP, udpGRO, u16(1300)), 1300},
		{"after-pktinfo", append(append([]byte(nil), pktinfo...), cmsgBuf(solUDP, udpGRO, i32(1472))...), 1472},
		{"pktinfo-only", pktinfo, 0},
		{"empty", nil, 0},
		{"short", []byte{1, 2, 3}, 0},
		{"wrong-level", cmsgBuf(syscall.IPPROTO_IP, udpGRO, i32(1420)), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := groSegSize(tc.buf); got != tc.want {
				t.Errorf("groSegSize = %d, want %d", got, tc.want)
			}
		})
	}

	// A cmsg header whose length overruns the buffer must not be trusted.
	bad := cmsgBuf(solUDP, udpGRO, i32(1420))
	(*syscall.Cmsghdr)(unsafe.Pointer(&bad[0])).SetLen(len(bad) + 64)
	if got := groSegSize(bad); got != 0 {
		t.Errorf("overlong cmsg len parsed as %d, want 0", got)
	}
}

// TestCoalesceRun checks the GSO coalescing rule on staged batches:
// maximal same-destination same-size runs, one shorter tail allowed
// only as the final segment, kernel segment-count and payload caps.
func TestCoalesceRun(t *testing.T) {
	addrA := netip.MustParseAddrPort("127.0.0.1:9000")
	addrB := netip.MustParseAddrPort("127.0.0.1:9001")
	mk := func(n int, a netip.AddrPort) outMsg { return outMsg{buf: make([]byte, n), addr: a} }

	repeat := func(n, size int, a netip.AddrPort) []outMsg {
		msgs := make([]outMsg, n)
		for i := range msgs {
			msgs[i] = mk(size, a)
		}
		return msgs
	}

	cases := []struct {
		name string
		msgs []outMsg
		want int
	}{
		{"uniform", repeat(4, 1000, addrA), 4},
		{"dest-change-breaks", []outMsg{mk(1000, addrA), mk(1000, addrA), mk(1000, addrB)}, 2},
		{"shorter-tail-joins", []outMsg{mk(1000, addrA), mk(1000, addrA), mk(600, addrA), mk(1000, addrA)}, 3},
		{"larger-breaks", []outMsg{mk(1000, addrA), mk(1200, addrA)}, 1},
		{"zero-first", []outMsg{mk(0, addrA), mk(1000, addrA)}, 1},
		{"zero-breaks", []outMsg{mk(1000, addrA), mk(0, addrA), mk(1000, addrA)}, 1},
		{"no-addr-breaks", []outMsg{mk(1000, addrA), {buf: make([]byte, 1000)}, mk(1000, addrA)}, 1},
		{"oversize-first", []outMsg{mk(udpMaxPayload, addrA), mk(udpMaxPayload, addrA)}, 1},
		{"segment-cap", repeat(gsoMaxSegments+6, 100, addrA), gsoMaxSegments},
		{"payload-cap", repeat(4, 30000, addrA), 2}, // 65507/30000 = 2 segments max
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := coalesceRun(tc.msgs, 0); got != tc.want {
				t.Errorf("coalesceRun = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestGsoWriterLiveLoopback drives a real UDP_SEGMENT send: a batch of
// same-size messages plus a shorter tail, aimed at two destinations,
// must arrive as individual bit-exact wire datagrams in order, with the
// IO counters showing kernel-split sub-segments amortized over few
// syscalls.
func TestGsoWriterLiveLoopback(t *testing.T) {
	if gso, _ := ProbeOffload(); !gso {
		t.Skip("kernel does not accept UDP_SEGMENT; skipping live GSO send test")
	}
	if !gsoSupported.Load() {
		t.Skip("GSO disabled at runtime earlier in this process")
	}
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("loopback socket: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	peer1, peer2, conn := listen(), listen(), listen()
	w := newBatchWriter(conn, nil)
	if !w.gso {
		t.Skip("send socket refused UDP_SEGMENT arming")
	}

	dst1 := peer1.LocalAddr().(*net.UDPAddr).AddrPort()
	dst2 := peer2.LocalAddr().(*net.UDPAddr).AddrPort()
	var msgs []outMsg
	var want1, want2 [][]byte
	for i := 0; i < 9; i++ {
		b := bytes.Repeat([]byte{byte('a' + i)}, 1200)
		msgs = append(msgs, outMsg{buf: b, addr: dst1})
		want1 = append(want1, b)
	}
	tail := bytes.Repeat([]byte{'z'}, 700) // shorter tail closes the first run
	msgs = append(msgs, outMsg{buf: tail, addr: dst1})
	want1 = append(want1, tail)
	for i := 0; i < 2; i++ {
		b := bytes.Repeat([]byte{byte('A' + i)}, 800) // second supersegment, second destination
		msgs = append(msgs, outMsg{buf: b, addr: dst2})
		want2 = append(want2, b)
	}

	before := transport.IOStats()
	if err := w.write(msgs); err != nil {
		t.Fatalf("write: %v", err)
	}
	after := transport.IOStats()

	recv := func(peer *net.UDPConn, want [][]byte) {
		buf := make([]byte, 2048)
		_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i, wd := range want {
			n, _, err := peer.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("datagram %d: %v", i, err)
			}
			if !bytes.Equal(buf[:n], wd) {
				t.Fatalf("datagram %d: %d bytes, want %d, content mismatch", i, n, len(wd))
			}
		}
	}
	recv(peer1, want1)
	recv(peer2, want2)

	wire := len(want1) + len(want2)
	if d := after.SentDatagrams - before.SentDatagrams; d < int64(wire) {
		t.Errorf("SentDatagrams +%d, want >= %d (sub-segments must be counted)", d, wire)
	}
	if d := after.GsoSegments - before.GsoSegments; d < int64(wire) {
		t.Errorf("GsoSegments +%d, want >= %d", d, wire)
	}
	if d := after.SendSyscalls - before.SendSyscalls; d > 2 {
		t.Errorf("SendSyscalls +%d for %d datagrams, want amortization (<= 2)", d, wire)
	}
}

// TestOffloadBitExactLoopback runs the same multicast batch transfer
// with offload on and off and demands identical decoded streams — the
// wire format must not change, only the syscall economics, which the
// offload-on leg also checks.
func TestOffloadBitExactLoopback(t *testing.T) {
	if !multicastAvailable(t) {
		t.Skip("no same-host multicast in this environment")
	}
	const total = 40
	run := func(t *testing.T, on bool, group string) map[uint32]string {
		offloadEnabled.Store(on)
		defer offloadEnabled.Store(true)
		rt, err := NewReceiverTransport(group, loopbackInterface(t))
		if err != nil {
			t.Skipf("receiver transport: %v", err)
		}
		defer rt.Close()
		st, err := NewSenderTransport(group, WithEgressIP(net.IPv4(127, 0, 0, 1)))
		if err != nil {
			t.Skipf("sender transport: %v", err)
		}
		defer st.Close()

		env := make([]transport.Envelope, 0, total)
		for i := 0; i < total; i++ {
			pl := bytes.Repeat([]byte{byte(i)}, 1000)
			env = append(env, transport.Envelope{
				Pkt: &packet.Packet{
					Header:  packet.Header{Type: packet.TypeData, Seq: uint32(i), Length: uint32(len(pl))},
					Payload: pl,
				},
				Multicast: true,
			})
		}
		before := transport.IOStats()
		if err := st.SendBatch(env); err != nil {
			t.Fatalf("SendBatch(offload=%v): %v", on, err)
		}
		// The syscall economics offload exists for: with GSO the batch
		// must leave in supersegments, at least 8 datagrams per syscall.
		if gso, _ := ProbeOffload(); on && gso {
			after := transport.IOStats()
			dgrams, calls := after.SentDatagrams-before.SentDatagrams, after.SendSyscalls-before.SendSyscalls
			if dgrams < 8*calls {
				t.Errorf("offload on: %d datagrams in %d send syscalls, want >= 8 per syscall", dgrams, calls)
			}
		}

		// Watchdog: close the receiver rather than hang if datagrams are
		// lost, and let the count assertion below report it.
		stop := time.AfterFunc(15*time.Second, func() { rt.Close() })
		defer stop.Stop()
		got := make(map[uint32]string, total)
		buf := make([]transport.Envelope, 16)
		for len(got) < total {
			n, err := rt.RecvBatch(buf)
			if err != nil {
				break
			}
			for i := 0; i < n; i++ {
				if buf[i].Pkt.Type == packet.TypeData {
					got[buf[i].Pkt.Seq] = string(buf[i].Pkt.Payload)
				}
				transport.PutPacket(buf[i].Pkt)
				buf[i] = transport.Envelope{}
			}
		}
		return got
	}

	on := run(t, true, "239.66.77.91:39893")
	off := run(t, false, "239.66.77.91:39894")
	if len(on) != total || len(off) != total {
		t.Fatalf("incomplete delivery: offload-on %d/%d, offload-off %d/%d",
			len(on), total, len(off), total)
	}
	for seq, pl := range on {
		if off[seq] != pl {
			t.Errorf("seq %d: payload differs between offload on and off", seq)
		}
	}
}
