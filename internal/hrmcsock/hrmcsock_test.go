package hrmcsock

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/transport"
)

func TestSocketTripleValidation(t *testing.T) {
	if _, err := Socket(AF_HRMC, SOCK_IP, IPPROTO_HRMC); err != nil {
		t.Fatalf("valid triple rejected: %v", err)
	}
	bad := [][3]int{
		{2 /* AF_INET */, SOCK_IP, IPPROTO_HRMC},
		{AF_HRMC, 1 /* SOCK_STREAM */, IPPROTO_HRMC},
		{AF_HRMC, SOCK_IP, 17 /* UDP */},
	}
	for _, tr := range bad {
		if _, err := Socket(tr[0], tr[1], tr[2]); err != ErrBadSocketTriple {
			t.Errorf("Socket%v err = %v, want ErrBadSocketTriple", tr, err)
		}
	}
}

func TestSetsockoptValidation(t *testing.T) {
	s, _ := Socket(AF_HRMC, SOCK_IP, IPPROTO_HRMC)
	if err := s.Setsockopt(SO_SNDBUF, 64<<10); err != nil {
		t.Errorf("SO_SNDBUF: %v", err)
	}
	if err := s.Setsockopt(SO_SNDBUF, -1); err != ErrBadOption {
		t.Error("negative SO_SNDBUF accepted")
	}
	if err := s.Setsockopt(SO_RCVBUF, "big"); err != ErrBadOption {
		t.Error("string SO_RCVBUF accepted")
	}
	if err := s.Setsockopt(99, 1); err != ErrBadOption {
		t.Error("unknown option accepted")
	}
	if err := s.Setsockopt(HRMC_ADD_MEMBERSHIP, 5); err != ErrBadOption {
		t.Error("integer membership accepted")
	}
}

func TestSendRecvLifecycleErrors(t *testing.T) {
	s, _ := Socket(AF_HRMC, SOCK_IP, IPPROTO_HRMC)
	if _, err := s.Send([]byte("x")); err != ErrNotConnected {
		t.Errorf("Send before Connect: %v", err)
	}
	if _, err := s.Recv(make([]byte, 1)); err != ErrNotConnected {
		t.Errorf("Recv before join: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close of idle socket: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := s.Bind(7); err != ErrClosed {
		t.Errorf("Bind after Close: %v", err)
	}
	if err := s.Connect("239.0.0.1:1"); err != ErrClosed {
		t.Errorf("Connect after Close: %v", err)
	}
}

// TestRoleExclusivity checks that once Connect or the membership option
// has opened the socket's flow, neither role can be taken again and no
// option or Bind is taken silently: each returns ErrAlreadyBound.
func TestRoleExclusivity(t *testing.T) {
	hub := transport.NewHub()
	for _, role := range []string{"send", "recv"} {
		s, _ := Socket(AF_HRMC, SOCK_IP, IPPROTO_HRMC)
		s.UseTransport(hub.Endpoint())
		var err error
		if role == "send" {
			err = s.Connect("239.0.0.1:1")
		} else {
			err = s.Setsockopt(HRMC_ADD_MEMBERSHIP, "239.0.0.1:1")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Connect("239.0.0.1:1"); err != ErrAlreadyBound {
			t.Errorf("%s: Connect: %v", role, err)
		}
		if err := s.Setsockopt(HRMC_ADD_MEMBERSHIP, "239.0.0.1:1"); err != ErrAlreadyBound {
			t.Errorf("%s: join: %v", role, err)
		}
		for _, opt := range []int{SO_SNDBUF, SO_RCVBUF, HRMC_EXPECTED_RECEIVERS, HRMC_LOOPBACK} {
			if err := s.Setsockopt(opt, 1); err != ErrAlreadyBound {
				t.Errorf("%s: option %d after the role was set: %v", role, opt, err)
			}
		}
		if err := s.Bind(7); err != ErrAlreadyBound {
			t.Errorf("%s: Bind: %v", role, err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: Close: %v", role, err)
		}
	}
}

// TestSocketTransferOverHub runs the full BSD-style call sequence of
// Section 4 over the in-memory transport: socket/bind/connect/send/close
// against socket/bind/setsockopt(join)/recv/close.
func TestSocketTransferOverHub(t *testing.T) {
	hub := transport.NewHub()
	const n = 2
	payload := make([]byte, 200<<10)
	app.FillPattern(payload, 0)

	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		r, err := Socket(AF_HRMC, SOCK_IP, IPPROTO_HRMC)
		if err != nil {
			t.Fatal(err)
		}
		r.UseTransport(hub.Endpoint())
		if err := r.Bind(7000); err != nil {
			t.Fatal(err)
		}
		if err := r.Setsockopt(SO_RCVBUF, 128<<10); err != nil {
			t.Fatal(err)
		}
		if err := r.Setsockopt(HRMC_ADD_MEMBERSHIP, "239.1.2.3:7000"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, r *Sock) {
			defer wg.Done()
			got, err := io.ReadAll(r)
			if err != nil {
				t.Errorf("receiver %d: %v", i, err)
			}
			results[i] = got
			r.Close()
		}(i, r)
	}

	s, err := Socket(AF_HRMC, SOCK_IP, IPPROTO_HRMC)
	if err != nil {
		t.Fatal(err)
	}
	s.UseTransport(hub.Endpoint())
	if err := s.Bind(5000); err != nil {
		t.Fatal(err)
	}
	if err := s.Setsockopt(SO_SNDBUF, 128<<10); err != nil {
		t.Fatal(err)
	}
	if err := s.Setsockopt(HRMC_EXPECTED_RECEIVERS, n); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect("239.1.2.3:7000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Send(payload); n != 0 || err != ErrClosed {
		t.Errorf("Send after Close = %d, %v; want 0, ErrClosed", n, err)
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, payload) {
			t.Errorf("receiver %d: %d bytes, equal=false", i, len(got))
		}
	}
}
