//go:build linux && (amd64 || arm64)

package udpmcast

import (
	"net"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// dialFeedback opens a local UDP socket aimed at the given port —
// multicast-free plumbing for driving the receive paths.
func dialFeedback(t *testing.T, port int) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func writeSeq32(t *testing.T, c *net.UDPConn, seq uint32) {
	t.Helper()
	p := &packet.Packet{Header: packet.Header{Type: packet.TypeUpdate, Seq: seq}}
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSyscallRuntimeFallback simulates a kernel or sandbox without
// recvmmsg/sendmmsg (the ENOSYS/EPERM path flips mmsgSupported): the
// transports must keep moving packets, one datagram per syscall.
func TestBatchSyscallRuntimeFallback(t *testing.T) {
	mmsgSupported.Store(false)
	t.Cleanup(func() { mmsgSupported.Store(true) })

	st, err := NewSenderTransport(testGroup)
	if err != nil {
		t.Skipf("cannot open sender transport: %v", err)
	}
	defer st.Close()
	c := dialFeedback(t, st.Addr().Port)

	const total = 6
	for i := 0; i < total; i++ {
		writeSeq32(t, c, uint32(300+i))
	}
	seqs := make(map[uint32]int)
	for _, e := range recvN(t, st, 4, total) {
		seqs[e.Pkt.Seq]++
		transport.PutPacket(e.Pkt)
	}
	for i := 0; i < total; i++ {
		if seqs[uint32(300+i)] != 1 {
			t.Errorf("seq %d delivered %d times, want 1", 300+i, seqs[uint32(300+i)])
		}
	}

	// The single-read path hands over exactly one datagram per read,
	// however many are waiting on the socket.
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback socket: %v", err)
	}
	defer conn.Close()
	br := newBatchReader(conn, false, nil)
	c2 := dialFeedback(t, conn.LocalAddr().(*net.UDPAddr).Port)
	for i := 0; i < total; i++ {
		writeSeq32(t, c2, uint32(400+i))
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < total; i++ {
		n, err := br.read(mmsgBatch)
		if err != nil || n != 1 {
			t.Fatalf("fallback read %d returned %d datagrams, %v; want one", i, n, err)
		}
		if b, src := br.datagram(0); len(b) == 0 || src.Port() != uint16(c2.LocalAddr().(*net.UDPAddr).Port) {
			t.Fatalf("fallback read %d: %d bytes from %v", i, len(b), src)
		}
	}

	// The send side degrades to sequential WriteToUDP: a multicast batch
	// must still leave without error.
	env := make([]transport.Envelope, 3)
	for i := range env {
		env[i] = transport.Envelope{
			Pkt:       &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: uint32(i)}},
			Multicast: true,
		}
	}
	if err := st.SendBatch(env); err != nil {
		t.Errorf("SendBatch under fallback: %v", err)
	}
}
