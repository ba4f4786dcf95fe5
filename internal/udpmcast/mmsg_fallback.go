//go:build !linux || (!amd64 && !arm64)

// Portable batch I/O: platforms without the recvmmsg/sendmmsg wiring
// run batch size 1 per syscall behind the same batchReader/batchWriter
// surface as mmsg_linux.go, with no segmentation offload (UDP GSO/GRO
// is Linux-only) and no destination-address recovery.
package udpmcast

import (
	"net"
	"net/netip"
	"sync/atomic"
)

// dstDemux reports that this platform's reader cannot tell which group
// a datagram was addressed to, so a data socket hosts one group.
const dstDemux = false

// armDemux has nothing to arm here.
func armDemux(*net.UDPConn) error { return nil }

// ProbeOffload reports kernel UDP_SEGMENT/UDP_GRO support: never
// available on this platform.
func ProbeOffload() (gso, gro bool) { return false, false }

// batchReader reads one datagram per call on platforms without
// recvmmsg support.
type batchReader struct {
	conn *net.UDPConn
	buf  []byte
	n    int
	addr netip.AddrPort
}

func newBatchReader(conn *net.UDPConn, wantDst bool, trunc *atomic.Int64) *batchReader {
	return &batchReader{conn: conn, buf: make([]byte, maxDatagram)}
}

func (r *batchReader) read(max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	n, addr, err := r.conn.ReadFromUDPAddrPort(r.buf)
	if err != nil {
		return 0, err
	}
	r.n, r.addr = n, addr
	return 1, nil
}

func (r *batchReader) datagram(int) ([]byte, netip.AddrPort) { return r.buf[:r.n], r.addr }

// dst reports the datagram's destination address: never known here.
func (r *batchReader) dst(int) uint32 { return 0 }

// gro reports the datagram's GRO segment size: never a supersegment
// here.
func (r *batchReader) gro(int) int { return 0 }

// batchWriter sends each message with its own syscall.
type batchWriter struct {
	conn *net.UDPConn
	errs *atomic.Int64 // optional per-endpoint send-error counter
}

func newBatchWriter(conn *net.UDPConn, errs *atomic.Int64) *batchWriter {
	return &batchWriter{conn: conn, errs: errs}
}

func (w *batchWriter) write(msgs []outMsg) error { return writeSeq(w.conn, msgs, w.errs) }
