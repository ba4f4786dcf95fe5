// Package hrmcsock provides the BSD-socket-flavoured interface of the
// kernel implementation (Section 4): applications create a socket with
// address family AF_HRMC, type SOCK_IP and protocol IPPROTO_HRMC, bind
// to a local port, then either connect to a multicast group and send
// (the sending side) or join the group with a socket option and recv
// (the receiving side). SO_SNDBUF/SO_RCVBUF set the kernel-buffer
// analogues that the paper's evaluation sweeps.
//
// Each socket is one flow on its own internal/session Session. When
// Connect or HRMC_ADD_MEMBERSHIP fixes the role, the socket's state
// becomes a session.FlowSpec: Bind → LocalPort, the group's port →
// PeerPort (sending side), SO_SNDBUF or SO_RCVBUF → Buf,
// HRMC_EXPECTED_RECEIVERS → Receivers. Close is Session.Close.
package hrmcsock

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// Constants mirroring the kernel implementation's socket() triple.
const (
	// AF_HRMC is the protocol's address family.
	AF_HRMC = 27
	// SOCK_IP is the socket type used by the kernel implementation.
	SOCK_IP = 5
	// IPPROTO_HRMC identifies the transport protocol.
	IPPROTO_HRMC = 254
)

// Socket option names (setsockopt analogues).
const (
	// SO_SNDBUF sets the send-side kernel buffer in bytes.
	SO_SNDBUF = iota
	// SO_RCVBUF sets the receive-side kernel buffer in bytes.
	SO_RCVBUF
	// HRMC_ADD_MEMBERSHIP joins the multicast group given as the string
	// option value ("239.1.2.3:9999"); the socket becomes a receiver.
	HRMC_ADD_MEMBERSHIP
	// HRMC_EXPECTED_RECEIVERS sets how many receivers must join before
	// the sending side releases buffered data.
	HRMC_EXPECTED_RECEIVERS
	// HRMC_LOOPBACK pins sender multicast egress to 127.0.0.1, and joins
	// a receiver on the lo interface (same-host demos).
	HRMC_LOOPBACK
)

// Errors.
var (
	ErrBadSocketTriple = errors.New("hrmcsock: socket() requires (AF_HRMC, SOCK_IP, IPPROTO_HRMC)")
	ErrNotConnected    = errors.New("hrmcsock: not connected")
	ErrAlreadyBound    = errors.New("hrmcsock: role already established")
	ErrBadOption       = errors.New("hrmcsock: unknown or misused option")
	ErrClosed          = errors.New("hrmcsock: socket closed")
)

// Sock is an H-RMC socket. Methods follow the BSD call sequence of the
// paper: sender — Socket, Bind, Connect, Send*, Close; receiver —
// Socket, Bind, Setsockopt(HRMC_ADD_MEMBERSHIP), Recv*, Close.
type Sock struct {
	mu   sync.Mutex
	port uint16

	sndBuf, rcvBuf int
	expected       int
	loopback       bool

	// transportOverride lets tests substitute an in-memory transport.
	transportOverride transport.Transport

	// sess is the socket's one-flow session, opened with its role.
	sess   *session.Session
	snd    *session.SenderFlow
	rcv    *session.ReceiverFlow
	closed bool
}

// Socket creates an H-RMC socket; domain, typ and proto must be the
// AF_HRMC/SOCK_IP/IPPROTO_HRMC triple, exactly as with the kernel
// driver.
func Socket(domain, typ, proto int) (*Sock, error) {
	if domain != AF_HRMC || typ != SOCK_IP || proto != IPPROTO_HRMC {
		return nil, ErrBadSocketTriple
	}
	return &Sock{}, nil
}

// settableLocked reports why the socket can take no more configuration:
// it is closed, or its role — and with it its flow — is established.
func (s *Sock) settableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.sess != nil {
		return ErrAlreadyBound
	}
	return nil
}

// Bind associates the socket with a local port, the flow's H-RMC header
// port (the UDP transports pick free ports of their own).
func (s *Sock) Bind(port uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.settableLocked(); err != nil {
		return err
	}
	s.port = port
	return nil
}

// Setsockopt sets integer options (SO_SNDBUF, SO_RCVBUF,
// HRMC_EXPECTED_RECEIVERS, HRMC_LOOPBACK with nonzero = on) and the
// string option HRMC_ADD_MEMBERSHIP. Once Connect or the membership
// option has established the role, every option returns ErrAlreadyBound.
func (s *Sock) Setsockopt(opt int, value any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.settableLocked(); err != nil {
		return err
	}
	switch opt {
	case SO_SNDBUF:
		v, ok := value.(int)
		if !ok || v <= 0 {
			return ErrBadOption
		}
		s.sndBuf = v
	case SO_RCVBUF:
		v, ok := value.(int)
		if !ok || v <= 0 {
			return ErrBadOption
		}
		s.rcvBuf = v
	case HRMC_EXPECTED_RECEIVERS:
		v, ok := value.(int)
		if !ok || v < 0 {
			return ErrBadOption
		}
		s.expected = v
	case HRMC_LOOPBACK:
		v, ok := value.(int)
		if !ok {
			return ErrBadOption
		}
		s.loopback = v != 0
	case HRMC_ADD_MEMBERSHIP:
		group, ok := value.(string)
		if !ok {
			return ErrBadOption
		}
		return s.joinLocked(group)
	default:
		return ErrBadOption
	}
	return nil
}

// joinLocked establishes the receiving role.
func (s *Sock) joinLocked(group string) error {
	tr := s.transportOverride
	if tr == nil {
		var ifi *net.Interface
		if s.loopback {
			lo, err := net.InterfaceByName("lo")
			if err != nil {
				return fmt.Errorf("hrmcsock: loopback join %s: %w", group, err)
			}
			ifi = lo
		}
		var err error
		tr, err = udpmcast.NewReceiverTransport(group, ifi)
		if err != nil {
			return fmt.Errorf("hrmcsock: join %s: %w", group, err)
		}
	}
	sess := session.New(session.Config{})
	f, err := sess.OpenReceiverFlow(tr, session.FlowSpec{Kind: session.KindReceiver, LocalPort: s.port, Buf: s.rcvBuf})
	if err != nil {
		sess.Abort()
		return fmt.Errorf("hrmcsock: join %s: %w", group, err)
	}
	s.sess, s.rcv = sess, f
	return nil
}

// Connect establishes the sending role toward the multicast group
// ("address:port").
func (s *Sock) Connect(group string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.settableLocked(); err != nil {
		return err
	}
	tr := s.transportOverride
	if tr == nil {
		var opts []udpmcast.SenderOption
		if s.loopback {
			opts = append(opts, udpmcast.WithEgressIP(net.IPv4(127, 0, 0, 1)))
		}
		var err error
		tr, err = udpmcast.NewSenderTransport(group, opts...)
		if err != nil {
			return fmt.Errorf("hrmcsock: connect %s: %w", group, err)
		}
	}
	// DATA is addressed to the group's port — the port receivers bind —
	// while feedback comes back to the locally bound port.
	sp := session.FlowSpec{Kind: session.KindSender, LocalPort: s.port, Buf: s.sndBuf, Receivers: s.expected}
	if ap, err := netip.ParseAddrPort(group); err == nil {
		sp.PeerPort = ap.Port()
	}
	sess := session.New(session.Config{})
	f, err := sess.OpenSenderFlow(tr, sp)
	if err != nil {
		sess.Abort()
		return fmt.Errorf("hrmcsock: connect %s: %w", group, err)
	}
	s.sess, s.snd = sess, f
	return nil
}

// Send transmits b on the multicast stream, blocking while the send
// window is full — the send system call of the kernel interface.
func (s *Sock) Send(b []byte) (int, error) {
	s.mu.Lock()
	snd, closed := s.snd, s.closed
	s.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if snd == nil {
		return 0, ErrNotConnected
	}
	return snd.Write(b)
}

// Recv delivers in-order stream bytes, blocking until data arrives; it
// returns io.EOF at the end of the stream — the recv system call.
func (s *Sock) Recv(b []byte) (int, error) {
	s.mu.Lock()
	rcv := s.rcv
	s.mu.Unlock()
	if rcv == nil {
		return 0, ErrNotConnected
	}
	return rcv.Read(b)
}

// Read makes a receiving Sock an io.Reader.
func (s *Sock) Read(b []byte) (int, error) { return s.Recv(b) }

// Write makes a sending Sock an io.Writer.
func (s *Sock) Write(b []byte) (int, error) { return s.Send(b) }

// Close releases the socket by closing its session. On the sending side
// it blocks until every receiver is known to hold the whole stream, like
// the kernel close on an H-RMC socket.
func (s *Sock) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sess := s.sess
	s.mu.Unlock()
	if sess == nil {
		return nil
	}
	return sess.Close()
}

// UseTransport substitutes the packet transport before Connect or the
// membership option — used by tests and in-process demos to run the
// socket API over an in-memory hub.
func (s *Sock) UseTransport(tr transport.Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.transportOverride = tr
}
