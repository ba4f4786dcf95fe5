//go:build linux && (amd64 || arm64)

// UDP segmentation offload (GSO) and receive offload (GRO) support.
//
// Send side: consecutive same-destination, same-size messages in one
// batch collapse into a single "supersegment" carrying a UDP_SEGMENT
// control message; the kernel splits it into wire datagrams after the
// one syscall (Linux >= 4.18). Receive side: UDP_GRO asks the kernel to
// coalesce bursts of same-size datagrams into one supersegment whose
// segment size arrives in a UDP_GRO control message (Linux >= 5.0);
// readers split it back apart in user space. Both directions are pure
// batching — the wire format is unchanged, so offload-on and
// offload-off endpoints interoperate bit-exactly.
//
// Probing and fallback: each socket trials the setsockopt at setup
// (enableGSO/enableGRO); kernels without the options simply leave the
// plain mmsg path in charge. A kernel that accepts the option but
// rejects a live UDP_SEGMENT send (observed with some seccomp/tc
// setups) flips the process-wide gsoSupported kill-switch and the
// writer re-sends the remainder unsegmented. Clearing offloadEnabled is
// the reference switch tests compare against.
package udpmcast

import (
	"net"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	// solUDP is SOL_UDP, the cmsg/sockopt level of the offload options.
	solUDP = 17
	// udpSegment is the UDP_SEGMENT sockopt/cmsg: the GSO segment size
	// the kernel splits an oversized send payload at.
	udpSegment = 103
	// udpGRO is the UDP_GRO sockopt (enable receive coalescing) and the
	// cmsg type reporting a received supersegment's segment size.
	udpGRO = 104

	// udpMaxPayload is the largest UDP payload one supersegment can
	// carry (65535 minus IPv4 and UDP headers).
	udpMaxPayload = 65507
	// gsoMaxSegments caps how many wire datagrams one supersegment may
	// split into (the kernel's UDP_MAX_SEGMENTS).
	gsoMaxSegments = 64

	// gsoCmsgSpace is CMSG_SPACE(sizeof(__u16)) on 64-bit Linux: the
	// 16-byte cmsghdr plus the 2-byte segment size rounded up to 8.
	gsoCmsgSpace = syscall.SizeofCmsghdr + 8
	// groBufSize sizes a GRO-armed receive slot for a full supersegment.
	groBufSize = 64 << 10
	// offloadSockBuf is the SO_RCVBUF/SO_SNDBUF requested for
	// offload-armed sockets: room for dozens of supersegment bursts
	// (the kernel clamps to rmem_max/wmem_max).
	offloadSockBuf = 4 << 20
	// groCtrlSpace holds one IP_PKTINFO plus one UDP_GRO cmsg.
	groCtrlSpace = pktinfoSpace + gsoCmsgSpace
)

// gsoSupported is the runtime kill-switch: set while UDP_SEGMENT sends
// are believed to work, cleared process-wide the first time the kernel
// rejects one so every writer falls back to unsegmented sends.
var gsoSupported atomic.Bool

func init() { gsoSupported.Store(true) }

// ProbeOffload reports whether the running kernel accepts the
// UDP_SEGMENT and UDP_GRO socket options, independent of the
// offloadEnabled switch. Tests and benches use it to skip offload arms
// gracefully.
func ProbeOffload() (gso, gro bool) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return false, false
	}
	defer conn.Close()
	rc, err := conn.SyscallConn()
	if err != nil {
		return false, false
	}
	_ = rc.Control(func(fd uintptr) {
		gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
		gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	return gso, gro
}

// enableGSO arms the writer for UDP_SEGMENT coalescing when the knob is
// on and the socket accepts the option. A zero segment size means "no
// standing segmentation" — actual sizes ride per-send cmsgs.
func (w *batchWriter) enableGSO() {
	if !offloadEnabled.Load() || w.rc == nil {
		return
	}
	w.gso = control(w.rc, func(fd int) error {
		return syscall.SetsockoptInt(fd, solUDP, udpSegment, 0)
	}) == nil
	if w.gso {
		// A coalesced batch hands the kernel up to 64 KB per sendmmsg
		// entry; give the socket queue room for several supersegments
		// (clamped by wmem_max) so bursts don't stall the send poller.
		_ = w.conn.SetWriteBuffer(offloadSockBuf)
	}
}

// enableGRO asks the kernel to coalesce this socket's inbound datagrams
// into supersegments, reporting whether the option took (and so whether
// the reader must be sized and armed for splitting).
func enableGRO(conn *net.UDPConn) bool {
	if !offloadEnabled.Load() {
		return false
	}
	ok := controlConn(conn, func(fd int) error {
		return syscall.SetsockoptInt(fd, solUDP, udpGRO, 1)
	}) == nil
	if ok {
		// A GSO sender delivers 64 KB bursts per syscall; the default
		// ~208 KB receive queue holds only three supersegments, so
		// overruns (and the NAK storms they trigger) dominate before the
		// reader ever falls behind for real. Clamp is rmem_max.
		_ = conn.SetReadBuffer(offloadSockBuf)
	}
	return ok
}

// gsoCmsg is one send-side UDP_SEGMENT control block, laid out exactly
// as CMSG_SPACE(2) so a pointer to it is a valid msg_control region.
// Keeping the cmsghdr in a struct (rather than casting into a byte
// slice) guarantees the kernel-required alignment.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	data [8]byte
}

// set fills the block with a UDP_SEGMENT cmsg carrying seg (host byte
// order, per the kernel ABI for __u16 cmsg payloads).
func (c *gsoCmsg) set(seg uint16) {
	c.hdr.Level = solUDP
	c.hdr.Type = udpSegment
	c.hdr.SetLen(syscall.SizeofCmsghdr + 2)
	*(*uint16)(unsafe.Pointer(&c.data[0])) = seg
}

// groSegSize walks a received control-message region and extracts the
// UDP_GRO segment size, or 0 when absent. The kernel declares the
// payload as int, but pre-5.2 builds shipped a u16 — both widths are
// accepted.
func groSegSize(b []byte) int {
	const hdrLen = syscall.SizeofCmsghdr
	for len(b) >= hdrLen {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
		l := int(h.Len)
		if l < hdrLen || l > len(b) {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO {
			switch {
			case l >= hdrLen+4:
				return int(*(*int32)(unsafe.Pointer(&b[hdrLen])))
			case l >= hdrLen+2:
				return int(*(*uint16)(unsafe.Pointer(&b[hdrLen])))
			}
			return 0
		}
		adv := (l + 7) &^ 7 // CMSG_ALIGN for 64-bit
		if adv <= 0 || adv > len(b) {
			return 0
		}
		b = b[adv:]
	}
	return 0
}

// gsoRejected classifies a sendmmsg errno on a supersegment as "the
// kernel refuses UDP_SEGMENT here" — grounds to disable offload
// process-wide and re-send unsegmented — as opposed to a transient or
// per-destination failure.
func gsoRejected(errno syscall.Errno) bool {
	switch errno {
	case syscall.EINVAL, syscall.EIO, syscall.EOPNOTSUPP, syscall.EMSGSIZE:
		return true
	}
	return false
}
