//go:build linux && (amd64 || arm64)

// Batched datagram syscalls: recvmmsg/sendmmsg collapse N datagrams
// into one kernel crossing, mirroring golang.org/x/net/ipv4's
// ReadBatch/WriteBatch. Implemented directly over the stdlib syscall
// package (this module carries no external dependencies); the
// non-blocking calls are woven into the runtime's netpoller via
// syscall.RawConn, so a blocked batch read parks the goroutine like a
// plain conn.Read would. On kernels or sandboxes rejecting the
// syscalls (ENOSYS/EPERM), the transport flips to the portable
// single-packet path in mmsg_common.go for the rest of the process.
package udpmcast

import (
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mmsgSupported gates the batch syscalls process-wide; the first
// ENOSYS/EPERM disables them and every reader/writer falls back to
// single-packet I/O.
var mmsgSupported atomic.Bool

func init() { mmsgSupported.Store(true) }

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// ntohs converts a network-byte-order uint16 read through a raw
// sockaddr into host order, independent of host endianness.
func ntohs(v uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&v))
	return uint16(b[0])<<8 | uint16(b[1])
}

func htons(v uint16) uint16 { return ntohs(v) }

// pktinfoSpace is CMSG_SPACE(sizeof(struct in_pktinfo)) on 64-bit
// Linux: a 16-byte aligned cmsghdr plus the 12-byte payload rounded up.
const pktinfoSpace = 32

// batchReader reads datagram batches from one UDP socket. The mmsghdr,
// iovec, name, and payload buffers are set up once and reused for
// every recvmmsg call.
type batchReader struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	bufs  [][]byte

	// Destination-address recovery (IP_PKTINFO) for the data socket,
	// which demuxes on the multicast group a datagram was addressed to.
	wantDst bool
	// wantGro marks a socket armed for UDP_GRO: slots are sized for a
	// full supersegment (bufSize) and gro() reports each datagram's
	// kernel-coalesced segment size for the consumer to split on.
	wantGro   bool
	bufSize   int
	ctrlSpace int
	ctrls     [][]byte // per-slot control buffers, nil unless wantDst/wantGro

	// trunc, when set, additionally counts truncated-datagram drops for
	// the owning endpoint's stats.
	trunc *atomic.Int64

	// Single-read fallback state, used when rc is unavailable or the
	// batch syscalls have been disabled at runtime.
	oneBuf  []byte
	oneOOB  []byte
	oneN    int
	oneDst  uint32
	oneGro  int
	oneAddr netip.AddrPort
	lastOne bool // last read() used the fallback path
}

// dstDemux reports that this platform's reader recovers each
// datagram's destination address, so one data socket can host many
// groups.
const dstDemux = true

// ipMulticastAll is the IP_MULTICAST_ALL socket option (absent from the
// syscall package). Linux defaults it to 1, which delivers traffic for
// ANY group any socket on the host joined to every socket bound to the
// group's port — clearing it confines a data socket to its own
// memberships, which is what makes several endpoints sharing one port
// on one host sane.
const ipMulticastAll = 49

// armDemux prepares a data socket for destination demux: IP_PKTINFO so
// each datagram reports the group it was addressed to, and
// !IP_MULTICAST_ALL so only joined groups arrive.
func armDemux(conn *net.UDPConn) error {
	return controlConn(conn, func(fd int) error {
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1); err != nil {
			return fmt.Errorf("udpmcast: enable IP_PKTINFO: %w", err)
		}
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, ipMulticastAll, 0); err != nil {
			return fmt.Errorf("udpmcast: clear IP_MULTICAST_ALL: %w", err)
		}
		return nil
	})
}

// newBatchReader builds the reader for one socket and settles its
// offload state: when the knob is on and the socket accepts UDP_GRO,
// the kernel may deliver coalesced supersegments, so each slot is sized
// for a full 64 KB UDP payload and carries control space for the
// segment-size cmsg. wantDst adds destination-address recovery (the
// socket must have been through armDemux): dst() then reports the IPv4
// address each datagram was sent to. trunc, when non-nil, additionally
// counts truncated-datagram drops for the owning endpoint.
func newBatchReader(conn *net.UDPConn, wantDst bool, trunc *atomic.Int64) *batchReader {
	gro := enableGRO(conn)
	r := &batchReader{conn: conn, wantDst: wantDst, wantGro: gro, bufSize: mmsgBufSize, trunc: trunc}
	if gro {
		r.bufSize = groBufSize
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return r // rc == nil selects the fallback path
	}
	r.rc = rc
	r.msgs = make([]mmsghdr, mmsgBatch)
	r.iovs = make([]syscall.Iovec, mmsgBatch)
	r.names = make([]syscall.RawSockaddrInet4, mmsgBatch)
	r.bufs = make([][]byte, mmsgBatch)
	for i := range r.msgs {
		r.bufs[i] = make([]byte, r.bufSize)
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].Len = uint64(r.bufSize)
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1
		r.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.msgs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
	}
	if wantDst || gro {
		r.ctrlSpace = pktinfoSpace
		if gro {
			r.ctrlSpace = groCtrlSpace
		}
		r.ctrls = make([][]byte, len(r.msgs))
		for i := range r.ctrls {
			r.ctrls[i] = make([]byte, r.ctrlSpace)
			r.msgs[i].hdr.Control = &r.ctrls[i][0]
			r.msgs[i].hdr.SetControllen(r.ctrlSpace)
		}
	}
	return r
}

// read blocks until at least one datagram arrives and returns how many
// (at most max) were drained in one recvmmsg. It falls back to a
// single blocking read when batch syscalls are unavailable.
func (r *batchReader) read(max int) (int, error) {
	if r.rc == nil || !mmsgSupported.Load() {
		return r.readOne()
	}
	if max > len(r.msgs) {
		max = len(r.msgs)
	}
	if max <= 0 {
		return 0, nil
	}
	for i := 0; i < max; i++ {
		r.msgs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
		if r.ctrls != nil {
			r.msgs[i].hdr.SetControllen(r.ctrlSpace) // kernel shrank it last read
		}
		r.msgs[i].n = 0
	}
	var n int
	var serr syscall.Errno
	err := r.rc.Read(func(fd uintptr) bool {
		got, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&r.msgs[0])), uintptr(max),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN {
			return false
		}
		n, serr = int(got), errno
		return true
	})
	if err != nil {
		return 0, err
	}
	if serr != 0 {
		if serr == syscall.ENOSYS || serr == syscall.EPERM {
			mmsgSupported.Store(false)
			return r.readOne()
		}
		return 0, serr
	}
	r.lastOne = false
	return n, nil
}

// readOne is the single-datagram path: one blocking ReadFromUDP (or
// ReadMsgUDP when destination addresses or GRO segment sizes are
// wanted — GRO may already be armed on the socket when the batch
// syscalls fall back, so supersegments must still be recognized here).
func (r *batchReader) readOne() (int, error) {
	if r.oneBuf == nil {
		r.oneBuf = make([]byte, maxDatagram)
	}
	if r.wantDst || r.wantGro {
		if r.oneOOB == nil {
			r.oneOOB = make([]byte, groCtrlSpace)
		}
		n, oobn, _, addr, err := r.conn.ReadMsgUDPAddrPort(r.oneBuf, r.oneOOB)
		if err != nil {
			return 0, err
		}
		r.oneN, r.oneAddr, r.lastOne = n, addr, true
		r.oneDst = pktinfoDst(r.oneOOB[:oobn])
		r.oneGro = 0
		if r.wantGro {
			r.oneGro = groSegSize(r.oneOOB[:oobn])
		}
		return 1, nil
	}
	n, addr, err := r.conn.ReadFromUDPAddrPort(r.oneBuf)
	if err != nil {
		return 0, err
	}
	r.oneN, r.oneAddr, r.lastOne = n, addr, true
	return 1, nil
}

// datagram returns the i-th datagram of the last read and its source
// address. The returned slice is valid until the next read.
func (r *batchReader) datagram(i int) ([]byte, netip.AddrPort) {
	if r.lastOne {
		return r.oneBuf[:r.oneN], r.oneAddr
	}
	n := int(r.msgs[i].n)
	if n >= r.bufSize {
		// Possible kernel-side truncation: poison the length so the
		// decoder rejects it rather than delivering a clipped packet,
		// and count the drop instead of losing it silently.
		n = 0
		countTruncated(r.trunc)
	}
	name := &r.names[i]
	return r.bufs[i][:n], netip.AddrPortFrom(netip.AddrFrom4(name.Addr), ntohs(name.Port))
}

// dst returns the IPv4 destination address of the i-th datagram of the
// last read as a big-endian uint32, or 0 when unavailable. Valid only
// on readers built with wantDst.
func (r *batchReader) dst(i int) uint32 {
	if r.lastOne {
		return r.oneDst
	}
	if r.ctrls == nil {
		return 0
	}
	return pktinfoDst(r.ctrls[i][:r.msgs[i].hdr.Controllen])
}

// gro returns the GRO segment size of the i-th datagram of the last
// read, or 0 when the datagram is not a kernel-coalesced supersegment
// (including on readers never armed for GRO). A non-zero value means
// the payload packs several seg-size wire datagrams back to back, the
// last possibly shorter.
func (r *batchReader) gro(i int) int {
	if r.lastOne {
		return r.oneGro
	}
	if !r.wantGro || r.ctrls == nil {
		return 0
	}
	return groSegSize(r.ctrls[i][:r.msgs[i].hdr.Controllen])
}

// pktinfoDst walks a received control-message region and extracts the
// in_pktinfo destination address (ipi_addr) as a big-endian uint32.
// Returns 0 when no IP_PKTINFO message is present or the region is
// malformed.
func pktinfoDst(b []byte) uint32 {
	const hdrLen = syscall.SizeofCmsghdr
	for len(b) >= hdrLen {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
		l := int(h.Len)
		if l < hdrLen || l > len(b) {
			return 0
		}
		if h.Level == syscall.IPPROTO_IP && h.Type == syscall.IP_PKTINFO && l >= hdrLen+12 {
			// struct in_pktinfo{ipi_ifindex; ipi_spec_dst; ipi_addr}:
			// the wire destination lives in the last 4 bytes.
			d := b[hdrLen : hdrLen+12]
			return uint32(d[8])<<24 | uint32(d[9])<<16 | uint32(d[10])<<8 | uint32(d[11])
		}
		adv := (l + 7) &^ 7 // CMSG_ALIGN for 64-bit
		if adv <= 0 || adv > len(b) {
			return 0
		}
		b = b[adv:]
	}
	return 0
}

// batchWriter sends datagram batches to per-message destinations over
// one UDP socket. Not safe for concurrent use; callers serialize.
type batchWriter struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	ctrls []gsoCmsg  // per-mmsghdr UDP_SEGMENT control blocks
	spans []sendSpan // mmsghdr → original msgs range, for counting/fallback
	errs  *atomic.Int64
	gso   bool // UDP_SEGMENT arming (enableGSO); see also gsoSupported
}

// sendSpan records which input messages one mmsghdr carries: count > 1
// marks a GSO supersegment whose count messages the kernel splits back
// into wire datagrams.
type sendSpan struct {
	start, count int
}

// newBatchWriter builds the writer for one socket and settles its
// offload state (see enableGSO). errs, when non-nil, additionally
// counts send failures for the owning endpoint.
func newBatchWriter(conn *net.UDPConn, errs *atomic.Int64) *batchWriter {
	w := &batchWriter{conn: conn, errs: errs}
	if rc, err := conn.SyscallConn(); err == nil {
		w.rc = rc
	}
	w.enableGSO()
	return w
}

// coalesceRun returns how many messages starting at msgs[i] fit into
// one UDP_SEGMENT supersegment: a maximal run of same-destination
// messages of msgs[i]'s size, optionally closed by one shorter tail
// message (the kernel requires every segment but the last to be exactly
// the cmsg segment size), capped by the kernel's segment-count and
// payload limits. Returns 1 when nothing coalesces.
func coalesceRun(msgs []outMsg, i int) int {
	seg := len(msgs[i].buf)
	if seg == 0 || seg >= udpMaxPayload {
		return 1
	}
	max := udpMaxPayload / seg
	if max > gsoMaxSegments {
		max = gsoMaxSegments
	}
	a := msgs[i].addr
	run := 1
	for run < max && i+run < len(msgs) {
		m := &msgs[i+run]
		if m.addr != a || len(m.buf) == 0 || len(m.buf) > seg {
			break
		}
		run++
		if len(m.buf) < seg {
			break // a shorter message is only valid as the final segment
		}
	}
	return run
}

// write transmits every message, using sendmmsg to cover the batch in
// as few syscalls as possible; with GSO armed, consecutive
// same-destination same-size messages collapse further into single
// UDP_SEGMENT supersegments (multi-iovec gather, zero copies) that the
// kernel splits into wire datagrams. A message without an IPv4
// destination is skipped. A message the
// kernel rejects is counted, skipped, and the batch continues — one
// dead destination no longer strands the rest of the batch — with the
// first error returned at the end.
func (w *batchWriter) write(msgs []outMsg) error {
	if w.rc == nil || !mmsgSupported.Load() {
		return writeSeq(w.conn, msgs, w.errs)
	}
	if len(w.iovs) < len(msgs) {
		w.msgs = make([]mmsghdr, len(msgs))
		w.iovs = make([]syscall.Iovec, len(msgs))
		w.names = make([]syscall.RawSockaddrInet4, len(msgs))
		w.ctrls = make([]gsoCmsg, len(msgs))
		w.spans = make([]sendSpan, len(msgs))
	}
	gso := w.gso && gsoSupported.Load()
	n, iv := 0, 0 // mmsghdrs built, iovecs consumed
	for i := 0; i < len(msgs); {
		m := &msgs[i]
		if !m.addr.Addr().Is4() || len(m.buf) == 0 {
			i++
			continue
		}
		run := 1
		if gso {
			run = coalesceRun(msgs, i)
		}
		w.names[n] = syscall.RawSockaddrInet4{
			Family: syscall.AF_INET,
			Port:   htons(m.addr.Port()),
			Addr:   m.addr.Addr().As4(),
		}
		first := iv
		for k := 0; k < run; k++ {
			w.iovs[iv].Base = &msgs[i+k].buf[0]
			w.iovs[iv].Len = uint64(len(msgs[i+k].buf))
			iv++
		}
		w.msgs[n] = mmsghdr{}
		w.msgs[n].hdr.Iov = &w.iovs[first]
		w.msgs[n].hdr.Iovlen = uint64(run)
		w.msgs[n].hdr.Name = (*byte)(unsafe.Pointer(&w.names[n]))
		w.msgs[n].hdr.Namelen = syscall.SizeofSockaddrInet4
		if run > 1 {
			c := &w.ctrls[n]
			c.set(uint16(len(m.buf)))
			w.msgs[n].hdr.Control = (*byte)(unsafe.Pointer(c))
			w.msgs[n].hdr.SetControllen(gsoCmsgSpace)
		}
		w.spans[n] = sendSpan{start: i, count: run}
		n++
		i += run
	}
	sent := 0
	var firstErr error
	for sent < n {
		var got int
		var serr syscall.Errno
		err := w.rc.Write(func(fd uintptr) bool {
			g, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&w.msgs[sent])), uintptr(n-sent),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if errno == syscall.EAGAIN {
				return false
			}
			got, serr = int(g), errno
			return true
		})
		if err != nil {
			return err
		}
		if serr != 0 {
			if serr == syscall.ENOSYS || serr == syscall.EPERM {
				mmsgSupported.Store(false)
				// Re-send everything not yet on the wire, one datagram
				// per syscall.
				return firstOf(firstErr, writeSeq(w.conn, msgs[w.spans[sent].start:], w.errs))
			}
			if w.spans[sent].count > 1 && gsoRejected(serr) {
				// The socket took the UDP_SEGMENT probe but the kernel
				// rejects live supersegments (seccomp, odd qdisc/driver):
				// disable GSO process-wide and re-send the remainder
				// unsegmented. The wire format is identical either way.
				gsoSupported.Store(false)
				return firstOf(firstErr, w.write(msgs[w.spans[sent].start:]))
			}
			// sendmmsg reports an errno only when the message at index
			// `sent` failed with nothing later sent: count it, skip it,
			// keep going so one dead destination doesn't strand the
			// rest of the batch.
			countSendError(w.errs)
			if firstErr == nil {
				firstErr = serr
			}
			sent++
			continue
		}
		if got <= 0 {
			break
		}
		var wire, gsoSegs int64
		for k := sent; k < sent+got; k++ {
			wire += int64(w.spans[k].count)
			if w.spans[k].count > 1 {
				gsoSegs += int64(w.spans[k].count)
			}
		}
		countSent(wire, gsoSegs, 1)
		sent += got
	}
	return firstErr
}

// firstOf returns the first non-nil error.
func firstOf(a, b error) error {
	if a != nil {
		return a
	}
	return b
}
