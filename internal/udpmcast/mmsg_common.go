// Batch I/O plumbing shared by the recvmmsg/sendmmsg implementation
// (mmsg_linux.go) and the portable single-syscall fallback
// (mmsg_fallback.go). Both expose the same batchReader/batchWriter
// surface, so the endpoint above is identical on every platform.
package udpmcast

import (
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

const (
	// mmsgBatch is how many datagrams one recvmmsg drains at most.
	mmsgBatch = 16
	// mmsgBufSize bounds one batched datagram. Larger datagrams (which
	// would need jumbo frames well past 9K MTU) are treated as
	// truncated and dropped; the fallback path still accepts up to
	// maxDatagram.
	mmsgBufSize = 16 << 10
)

// outMsg is one encoded datagram and its IPv4 destination. Writers
// skip a message whose addr is not IPv4 (the zero value included).
type outMsg struct {
	buf  []byte
	addr netip.AddrPort
}

// offloadEnabled enables UDP GSO/GRO for sockets opened from now on
// (default enabled; existing sockets keep their arming). The ladder
// needs no configuration — it chooses by probe and by the errno the
// kernel returns — so clearing it is only the tests' reference arm:
// new sockets skip the offload probes entirely and run the plain mmsg
// path.
var offloadEnabled atomic.Bool

func init() { offloadEnabled.Store(true) }

// truncLogOnce gates the one-time log line for truncated-datagram
// drops; afterwards the incident is visible only through the counters.
var truncLogOnce sync.Once

// countTruncated records one truncated-datagram drop in the process
// counter, the per-transport counter when present, and logs the first
// occurrence.
func countTruncated(perTransport *atomic.Int64) {
	transport.IO.TruncatedDatagrams.Add(1)
	if perTransport != nil {
		perTransport.Add(1)
	}
	truncLogOnce.Do(func() {
		log.Printf("udpmcast: dropped datagram at or above the %d-byte batch buffer; further drops are counted in hrmc_transport_truncated_datagrams_total", mmsgBufSize)
	})
}

// countSendError records one per-destination send failure in the
// process counter and the per-transport counter when present.
func countSendError(perTransport *atomic.Int64) {
	transport.IO.SendErrors.Add(1)
	if perTransport != nil {
		perTransport.Add(1)
	}
}

// countSent records datagrams successfully handed to the kernel:
// datagrams is the wire count (GSO supersegments already expanded into
// their kernel-split sub-segments), gsoSegs the subset that left inside
// supersegments, and syscalls the kernel crossings spent.
func countSent(datagrams, gsoSegs, syscalls int64) {
	transport.IO.SentDatagrams.Add(datagrams)
	transport.IO.SendSyscalls.Add(syscalls)
	if gsoSegs > 0 {
		transport.IO.GsoSegments.Add(gsoSegs)
	}
}

// countGroSplit records one received GRO supersegment that the reader
// split into segments individual datagrams.
func countGroSplit(segments int) {
	transport.IO.GroSupersegments.Add(1)
	transport.IO.GroSegments.Add(int64(segments))
}

// splitDatagrams iterates the wire datagrams packed into one receive
// slot. A kernel-coalesced GRO supersegment (seg > 0 and a buffer
// longer than seg) is cut at seg-byte boundaries, the final segment
// allowed shorter (the odd tail); otherwise the buffer is one plain
// datagram. It returns how many datagrams fn saw.
func splitDatagrams(b []byte, seg int, fn func([]byte)) int {
	if seg <= 0 || len(b) <= seg {
		fn(b)
		return 1
	}
	n := 0
	for len(b) > 0 {
		d := b
		if len(d) > seg {
			d = d[:seg]
		}
		b = b[len(d):]
		fn(d)
		n++
	}
	return n
}

// writeSeq transmits each message with its own syscall — the portable
// path, and the runtime fallback when batch syscalls are unavailable.
// Every failure is counted (errs may be nil); only the first is
// returned.
func writeSeq(conn *net.UDPConn, msgs []outMsg, errs *atomic.Int64) error {
	var firstErr error
	for _, m := range msgs {
		if !m.addr.Addr().Is4() || len(m.buf) == 0 {
			continue
		}
		if _, err := conn.WriteToUDPAddrPort(m.buf, m.addr); err != nil {
			countSendError(errs)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			countSent(1, 0, 1)
		}
	}
	return firstErr
}
