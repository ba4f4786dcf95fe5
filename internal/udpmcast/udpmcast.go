// Package udpmcast implements transport.Transport over real IP
// multicast using the standard net package, so the same protocol
// machines that run in the simulator drive actual UDP sockets — the
// library's equivalent of the paper's kernel deployment, where one
// AF_HRMC socket type serves every role.
//
// There is one endpoint type. An Endpoint is a socket pair:
//
//   - the data socket (optional) binds the groups' shared UDP port with
//     SO_REUSEADDR and holds the IGMP memberships. On Linux it clears
//     IP_MULTICAST_ALL (so it receives only groups it joined, not every
//     group any socket on the host joined) and enables IP_PKTINFO, so
//     each datagram's destination group address comes back as a control
//     message. That address — an IPv4 address read as a big-endian
//     uint32 — IS the transport.GroupID: kernel demux output maps
//     straight to the envelope tag with no lookup.
//   - the feedback socket is an ephemeral-port unicast socket carrying
//     all transmission (multicast egress included) and receiving unicast
//     feedback. Sending from it rather than from the shared data port
//     means peers learn a per-endpoint source address, so feedback and
//     PROBEs route between endpoints even when several share one host
//     and one data port.
//
// One read loop per open socket decodes into pooled packets and feeds
// the endpoint's transport.Inbox; every source address heard is mapped
// to a dense NodeID in one peer table, which is how unicast sends are
// addressed. Every group on an endpoint must use the endpoint's data
// port: the group address alone distinguishes them.
//
// The three constructors are three ways to open the same type. An
// endpoint opened for one group (NewReceiverTransport,
// NewSenderTransport) has that group as its default group, which is
// group 0 in both directions; NewGroupTransport opens a shard hosting
// many groups, each addressed by its GroupID.
//
// I/O is batched behind a ladder that steps down by probe and by the
// errno the kernel returns: UDP GSO/GRO, then sendmmsg/recvmmsg, then
// one datagram per syscall (see mmsg_linux.go, offload_linux.go; other
// platforms start on the last rung, mmsg_fallback.go).
package udpmcast

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/packet"
	"repro/internal/transport"
)

// maxDatagram bounds received packet size (MSS + header with slack).
const maxDatagram = 64 << 10

// peerIDBase is the first node ID handed to a learned peer address.
// Port-derived local IDs occupy [0, 65535]; keeping assigned peer IDs
// above this base keeps the two spaces disjoint.
const peerIDBase packet.NodeID = 1 << 20

// ErrGroupUnsupported reports a Join the platform cannot serve: without
// destination-address recovery (IP_PKTINFO, Linux amd64/arm64) a data
// socket cannot tell groups apart, so an endpoint hosts one joined
// group; callers fall back to one endpoint per group.
var ErrGroupUnsupported = errors.New("udpmcast: more than one joined group per endpoint requires linux amd64/arm64")

// GroupConfig configures an endpoint opened with NewGroupTransport.
type GroupConfig struct {
	// Port is the UDP data port shared by every group on this
	// endpoint. Required.
	Port int
	// Loopback confines the endpoint to 127.0.0.1: memberships join on
	// the loopback interface, egress is pinned there, and multicast
	// loop is enabled — the same-host demo/test mode.
	Loopback bool
}

// counters is the per-endpoint half of GroupStats, all atomics because
// read loops, SendBatch callers, and stats readers race freely.
type counters struct {
	pktsIn     atomic.Int64
	pktsOut    atomic.Int64
	inboxDrops atomic.Int64
	truncated  atomic.Int64
	sendErrors atomic.Int64
}

// sendState is the batched-send half of an endpoint: encode scratch and
// the outMsg staging list survive between batches so the steady state
// allocates nothing. Guarded by mu; SendBatch calls from concurrent
// flows serialize here, which also serializes sendmmsg on the socket.
type sendState struct {
	mu  sync.Mutex
	bw  *batchWriter
	enc [][]byte
	out []outMsg
}

// encBuf returns the i-th reusable encode buffer, truncated to zero.
func (s *sendState) encBuf(i int) []byte {
	for len(s.enc) <= i {
		s.enc = append(s.enc, nil)
	}
	return s.enc[i][:0]
}

// Endpoint is the UDP multicast endpoint: at most two sockets and two
// read loops however many groups it hosts.
type Endpoint struct {
	mconn *net.UDPConn // data socket: memberships + group traffic in; nil on a sender-opened endpoint
	uconn *net.UDPConn // feedback socket: all traffic out, unicast in
	port  int          // the groups' shared data port
	// ifaddr names the membership/egress interface by its IPv4 address
	// (the zero Addr is the system default).
	ifaddr netip.Addr
	// def is the default group of an endpoint opened for one group: sent
	// to and delivered as group 0. Zero on NewGroupTransport endpoints.
	// Immutable once the read loops run.
	def transport.GroupID
	// sender is the peer ID of the first source heard on the default
	// group, where unicast with To unset goes; 0 until heard.
	sender atomic.Uint32
	// sole is the one joined group on a platform without destination
	// demux, to which every data-socket arrival is attributed.
	sole atomic.Uint32

	send  sendState
	inbox *transport.Inbox
	loops sync.WaitGroup
	once  sync.Once
	cerr  error // first Close's result

	mu     sync.Mutex
	ids    map[netip.AddrPort]packet.NodeID // source address -> learned peer ID
	addrs  []netip.AddrPort                 // learned peer ID - peerIDBase -> source address
	groups map[transport.GroupID]bool       // resolved groups; true while joined
	joined int                              // groups with live memberships

	cnt counters
}

var (
	_ transport.GroupTransport = (*Endpoint)(nil)
	_ transport.GroupReporter  = (*Endpoint)(nil)
)

// NewGroupTransport opens a many-group endpoint: one shard of a
// daemon's group population. No groups are joined yet; flows join
// (receive) or register (send-only) groups afterwards, and address each
// by its GroupID.
func NewGroupTransport(cfg GroupConfig) (*Endpoint, error) {
	if cfg.Port <= 0 {
		return nil, fmt.Errorf("udpmcast: group transport needs a data port, got %d", cfg.Port)
	}
	var ifaddr netip.Addr // the system default route
	if cfg.Loopback {
		ifaddr = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	}
	e, err := open(cfg.Port, true, ifaddr)
	if err != nil {
		return nil, err
	}
	return e.start()
}

// NewReceiverTransport opens an endpoint that has joined one multicast
// group ("239.66.66.66:9999") on the given interface (nil selects the
// system default). The group is the endpoint's default group.
func NewReceiverTransport(group string, ifi *net.Interface) (*Endpoint, error) {
	gaddr, err := parseGroup(group, 0)
	if err != nil {
		return nil, err
	}
	ifaddr, err := interfaceAddr(ifi)
	if err != nil {
		return nil, err
	}
	e, err := open(int(gaddr.Port()), true, ifaddr)
	if err != nil {
		return nil, err
	}
	if e.def, err = e.Join(group); err != nil {
		e.Close()
		return nil, err
	}
	return e.start()
}

// SenderOption configures an endpoint opened with NewSenderTransport.
type SenderOption func(*Endpoint) error

// WithEgressIP pins outgoing multicast to the interface owning ip and
// enables multicast loopback — required for same-host demos, where the
// group must be reached over 127.0.0.1.
func WithEgressIP(ip net.IP) SenderOption {
	return func(e *Endpoint) error {
		ip4 := ip.To4()
		if ip4 == nil {
			return fmt.Errorf("udpmcast: egress IP %v is not IPv4", ip)
		}
		e.ifaddr = netip.AddrFrom4([4]byte(ip4))
		return nil
	}
}

// NewSenderTransport opens a send-only endpoint for one multicast group
// ("239.66.66.66:9999"): no data socket and no membership, so it hears
// unicast feedback but none of the group's traffic. The group is the
// endpoint's default group.
func NewSenderTransport(group string, opts ...SenderOption) (*Endpoint, error) {
	gaddr, err := parseGroup(group, 0)
	if err != nil {
		return nil, err
	}
	e, err := open(int(gaddr.Port()), false, netip.Addr{})
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		if err := o(e); err != nil {
			e.Close()
			return nil, err
		}
	}
	if e.def, err = e.Register(group); err != nil {
		e.Close()
		return nil, err
	}
	return e.start()
}

// open creates an endpoint's sockets and tables; start finishes the
// job once the constructor has settled the default group and options.
func open(port int, data bool, ifaddr netip.Addr) (*Endpoint, error) {
	uconn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		return nil, fmt.Errorf("udpmcast: listen unicast: %w", err)
	}
	e := &Endpoint{
		uconn:  uconn,
		port:   port,
		ifaddr: ifaddr,
		inbox:  transport.NewInbox(),
		ids:    make(map[netip.AddrPort]packet.NodeID),
		groups: make(map[transport.GroupID]bool),
	}
	if data {
		if e.mconn, err = listenData(port); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// start pins multicast egress, arms the batch writer and one batch
// reader per socket — here rather than inside the goroutines, so
// offload state is settled when the constructor returns — and launches
// the read loops.
func (e *Endpoint) start() (*Endpoint, error) {
	if err := e.setEgress(); err != nil {
		e.Close()
		return nil, err
	}
	e.send.bw = newBatchWriter(e.uconn, &e.cnt.sendErrors)
	e.loops.Add(1)
	go e.readLoop(newBatchReader(e.uconn, false, &e.cnt.truncated), false)
	if e.mconn != nil {
		e.loops.Add(1)
		go e.readLoop(newBatchReader(e.mconn, true, &e.cnt.truncated), true)
	}
	return e, nil
}

// listenData binds the shared data port with SO_REUSEADDR (several
// endpoints or daemons may share a host) and arms destination demux
// after the bind.
func listenData(port int) (*net.UDPConn, error) {
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		return control(rc, func(fd int) error {
			return syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
		})
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp4", net.JoinHostPort("0.0.0.0", strconv.Itoa(port)))
	if err != nil {
		return nil, fmt.Errorf("udpmcast: listen data port %d: %w", port, err)
	}
	conn := pc.(*net.UDPConn)
	if err := armDemux(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// interfaceAddr returns ifi's first IPv4 address — how memberships and
// multicast egress name an interface on every platform — or the zero
// Addr (system default) for nil.
func interfaceAddr(ifi *net.Interface) (netip.Addr, error) {
	if ifi == nil {
		return netip.Addr{}, nil
	}
	addrs, err := ifi.Addrs()
	if err != nil {
		return netip.Addr{}, fmt.Errorf("udpmcast: interface %s: %w", ifi.Name, err)
	}
	for _, a := range addrs {
		if n, ok := a.(*net.IPNet); ok {
			if ip4 := n.IP.To4(); ip4 != nil {
				return netip.AddrFrom4([4]byte(ip4)), nil
			}
		}
	}
	return netip.Addr{}, fmt.Errorf("udpmcast: interface %s has no IPv4 address", ifi.Name)
}

// setEgress pins outgoing multicast on the feedback socket to the
// interface owning e.ifaddr, with multicast loopback on (same-host
// groups depend on it). The system default needs nothing.
func (e *Endpoint) setEgress() error {
	if !e.ifaddr.IsValid() {
		return nil
	}
	err := controlConn(e.uconn, func(fd int) error {
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_MULTICAST_LOOP, 1); err != nil {
			return err
		}
		return syscall.SetsockoptInet4Addr(fd, syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF, e.ifaddr.As4())
	})
	if err != nil {
		return fmt.Errorf("udpmcast: set multicast egress: %w", err)
	}
	return nil
}

// control runs f on the socket's file descriptor.
func control(rc syscall.RawConn, f func(fd int) error) error {
	var ferr error
	if err := rc.Control(func(fd uintptr) { ferr = f(int(fd)) }); err != nil {
		return err
	}
	return ferr
}

// controlConn is control for an open socket.
func controlConn(conn *net.UDPConn, f func(fd int) error) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	return control(rc, f)
}

// parseGroup parses a group spec, "239.1.2.3:9999" or (with a non-zero
// defaultPort) a bare "239.1.2.3", requiring an IPv4 multicast address.
func parseGroup(group string, defaultPort int) (netip.AddrPort, error) {
	spec := group
	if defaultPort != 0 && !strings.Contains(spec, ":") {
		spec = net.JoinHostPort(spec, strconv.Itoa(defaultPort))
	}
	gaddr, err := net.ResolveUDPAddr("udp4", spec)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("udpmcast: resolve group: %w", err)
	}
	ip4 := gaddr.IP.To4()
	if ip4 == nil || !gaddr.IP.IsMulticast() {
		return netip.AddrPort{}, fmt.Errorf("udpmcast: %s is not an IPv4 multicast address", gaddr.IP)
	}
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte(ip4)), uint16(gaddr.Port)), nil
}

// resolve parses a group spec, requires the endpoint's shared data
// port, and derives the GroupID from the IPv4 group address.
func (e *Endpoint) resolve(group string) (transport.GroupID, error) {
	gaddr, err := parseGroup(group, e.port)
	if err != nil {
		return 0, err
	}
	if int(gaddr.Port()) != e.port {
		return 0, fmt.Errorf("udpmcast: group %s port %d differs from the endpoint's shared data port %d",
			group, gaddr.Port(), e.port)
	}
	ip4 := gaddr.Addr().As4()
	return transport.GroupID(uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3])), nil
}

// groupIP is resolve's inverse: the IPv4 group address a GroupID
// spells.
func groupIP(gid transport.GroupID) [4]byte {
	return [4]byte{byte(gid >> 24), byte(gid >> 16), byte(gid >> 8), byte(gid)}
}

// Join implements transport.GroupTransport: resolve, remember, and add
// the IGMP membership (idempotently).
func (e *Endpoint) Join(group string) (transport.GroupID, error) {
	gid, err := e.resolve(group)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.groups[gid]:
		return gid, nil
	case e.mconn == nil:
		return 0, fmt.Errorf("udpmcast: join %s: endpoint was opened send-only and has no data socket", group)
	case !dstDemux && e.joined > 0:
		return 0, ErrGroupUnsupported
	}
	if err := e.membership(gid, syscall.IP_ADD_MEMBERSHIP); err != nil {
		return 0, fmt.Errorf("udpmcast: join %s: %w (hitting igmp_max_memberships?)", group, err)
	}
	e.groups[gid] = true
	e.joined++
	if !dstDemux {
		e.sole.Store(uint32(gid))
	}
	return gid, nil
}

// Register implements transport.GroupTransport: resolve the group for
// sending without a membership.
func (e *Endpoint) Register(group string) (transport.GroupID, error) {
	gid, err := e.resolve(group)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.groups[gid]; !ok {
		e.groups[gid] = false
	}
	return gid, nil
}

// Leave implements transport.GroupTransport: drop the membership. The
// group stays resolved for sending; leaving a group that was only
// registered (or never seen) is a no-op.
func (e *Endpoint) Leave(gid transport.GroupID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.groups[gid] {
		return nil
	}
	e.groups[gid] = false
	e.joined--
	return e.membership(gid, syscall.IP_DROP_MEMBERSHIP)
}

// membership adds or drops one IGMP membership on the data socket.
// Caller holds e.mu (which serializes membership changes).
func (e *Endpoint) membership(gid transport.GroupID, op int) error {
	mreq := &syscall.IPMreq{Multiaddr: groupIP(gid)}
	if e.ifaddr.IsValid() {
		mreq.Interface = e.ifaddr.As4()
	}
	return controlConn(e.mconn, func(fd int) error {
		return syscall.SetsockoptIPMreq(fd, syscall.IPPROTO_IP, op, mreq)
	})
}

// learn returns the node ID of a source address, assigning the next
// dense ID (>= peerIDBase) to one not seen before. IDs are stable for
// the endpoint's lifetime.
func (e *Endpoint) learn(src netip.AddrPort) packet.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.ids[src]
	if !ok {
		id = peerIDBase + packet.NodeID(len(e.addrs))
		e.ids[src] = id
		e.addrs = append(e.addrs, src)
	}
	return id
}

// readLoop is the endpoint's one receive path, run once per open
// socket: drain the socket in recvmmsg batches, decode into pooled
// packets (splitting GRO supersegments back into individual datagrams),
// learn peer source addresses, and push whole batches into the inbox.
// The data-socket loop additionally tags each envelope with the
// multicast group it was addressed to — every segment of a
// supersegment shares one wire destination and source, so the group
// tag and peer ID are resolved once per slot.
func (e *Endpoint) readLoop(br *batchReader, data bool) {
	defer e.loops.Done()
	batch := make([]transport.Envelope, 0, mmsgBatch)
	for {
		n, err := br.read(mmsgBatch)
		if err != nil {
			return
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			b, src := br.datagram(i)
			var gid transport.GroupID
			if data {
				d := br.dst(i)
				if d == 0 {
					d = e.sole.Load()
				}
				if d>>28 == 0xe { // 224.0.0.0/4
					gid = transport.GroupID(d)
				}
			}
			first := len(batch)
			segs := splitDatagrams(b, br.gro(i), func(d []byte) {
				// Copy-mode decode: the batch outlives the reader slots.
				p := packet.GetBuf(len(d))
				if err := packet.DecodeInto(p, d); err != nil {
					transport.PutPacket(p) // garbage or corrupted datagram
					return
				}
				batch = append(batch, transport.Envelope{Pkt: p})
			})
			if segs > 1 {
				countGroSplit(segs)
			}
			if len(batch) == first {
				continue // garbage datagrams never populate the peer table
			}
			from := e.learn(src)
			if gid != 0 && gid == e.def {
				gid = 0
				if e.sender.Load() == 0 {
					e.sender.Store(uint32(from)) // this loop is the only writer
				}
			}
			for j := first; j < len(batch); j++ {
				batch[j].From, batch[j].Group = from, gid
			}
		}
		if len(batch) > 0 {
			e.cnt.pktsIn.Add(int64(len(batch)))
			e.cnt.inboxDrops.Add(int64(e.inbox.Push(batch)))
		}
	}
}

// Local implements transport.Transport: the node ID derives from the
// feedback socket's port, so flows hosted in one session share a
// node-ID space under the port demultiplexer and local IDs stay
// disjoint from learned peer IDs (>= peerIDBase).
func (e *Endpoint) Local() packet.NodeID { return packet.NodeID(e.Addr().Port) }

// Addr returns the endpoint's feedback socket address, the source of
// everything it sends.
func (e *Endpoint) Addr() *net.UDPAddr { return e.uconn.LocalAddr().(*net.UDPAddr) }

// Sockets returns how many file descriptors the endpoint holds — the
// O(1) half of the thousand-group claim.
func (e *Endpoint) Sockets() int {
	if e.mconn == nil {
		return 1
	}
	return 2
}

// GroupStats snapshots the endpoint's datapath counters, implementing
// transport.GroupReporter for the control plane's per-shard metrics.
func (e *Endpoint) GroupStats() transport.GroupStats {
	e.mu.Lock()
	joined, registered := e.joined, len(e.groups)
	e.mu.Unlock()
	return transport.GroupStats{
		Joined:         joined,
		Registered:     registered,
		PktsIn:         e.cnt.pktsIn.Load(),
		PktsOut:        e.cnt.pktsOut.Load(),
		InboxDrops:     e.cnt.inboxDrops.Load(),
		TruncatedDrops: e.cnt.truncated.Load(),
		SendErrors:     e.cnt.sendErrors.Load(),
	}
}

// dest resolves one envelope's wire destination. Multicast goes to the
// group Envelope.Group names (0 is the default group), which must be
// joined or registered; unicast goes to the learned peer Envelope.To
// names, or with To unset to the default group's sender. Caller holds
// e.mu.
func (e *Endpoint) dest(env *transport.Envelope) (netip.AddrPort, error) {
	if env.Multicast {
		gid := env.Group
		if gid == 0 {
			gid = e.def
		}
		if _, ok := e.groups[gid]; !ok {
			return netip.AddrPort{}, fmt.Errorf("udpmcast: group %v neither joined nor registered", env.Group)
		}
		return netip.AddrPortFrom(netip.AddrFrom4(groupIP(gid)), uint16(e.port)), nil
	}
	to := env.To
	if to == 0 {
		if to = packet.NodeID(e.sender.Load()); to == 0 {
			return netip.AddrPort{}, errors.New("udpmcast: unicast with To unset before the default group's sender was heard")
		}
	}
	if to >= peerIDBase && int(to-peerIDBase) < len(e.addrs) {
		return e.addrs[to-peerIDBase], nil
	}
	return netip.AddrPort{}, fmt.Errorf("udpmcast: unknown node %v", to)
}

// SendBatch implements transport.Transport: the whole batch is encoded
// into reused buffers and leaves from the feedback socket down the send
// ladder (GSO supersegments, sendmmsg, or one datagram per syscall).
// An envelope that cannot be addressed is counted in SendErrors; the
// first per-envelope error is returned after the rest of the batch is
// sent.
func (e *Endpoint) SendBatch(env []transport.Envelope) error {
	s := &e.send
	s.mu.Lock()
	defer s.mu.Unlock()
	msgs := s.out[:0]
	var firstErr error
	e.mu.Lock()
	for i := range env {
		addr, err := e.dest(&env[i])
		if err != nil {
			countSendError(&e.cnt.sendErrors)
		} else {
			var b []byte
			if b, err = env[i].Pkt.Encode(s.encBuf(i)); err == nil {
				s.enc[i] = b
				msgs = append(msgs, outMsg{buf: b, addr: addr})
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.mu.Unlock()
	e.cnt.pktsOut.Add(int64(len(msgs)))
	err := s.bw.write(msgs)
	s.out = msgs[:0]
	if firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// RecvBatch implements transport.Transport, draining the inbox fed by
// the read loops. Ownership of the returned packets transfers to the
// caller.
func (e *Endpoint) RecvBatch(buf []transport.Envelope) (int, error) {
	return e.inbox.RecvBatch(buf)
}

// Close implements transport.Transport: it closes the inbox (RecvBatch
// drains what is queued, then returns ErrClosed) and the sockets, and
// waits for the read loops to exit. Closing twice is harmless.
func (e *Endpoint) Close() error {
	e.once.Do(func() {
		e.inbox.Close()
		e.cerr = e.uconn.Close()
		if e.mconn != nil {
			if err := e.mconn.Close(); e.cerr == nil {
				e.cerr = err
			}
		}
		e.loops.Wait()
	})
	return e.cerr
}
