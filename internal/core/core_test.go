package core

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/transport"
)

// runTransfer moves size bytes from one sender to n receivers over the
// hub and returns what each receiver read.
func runTransfer(t *testing.T, hub *transport.Hub, n int, size int, scfg sender.Config, rcfg receiver.Config) [][]byte {
	t.Helper()
	scfg.ExpectedReceivers = n
	data := make([]byte, size)
	app.FillPattern(data, 0)

	var rs []*Receiver
	for i := 0; i < n; i++ {
		rs = append(rs, NewReceiver(hub.Endpoint(), rcfg))
	}
	snd := NewSender(hub.Endpoint(), scfg)

	results := make([][]byte, n)
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *Receiver) {
			defer wg.Done()
			got, err := io.ReadAll(r)
			if err != nil {
				t.Errorf("receiver %d: %v", i, err)
			}
			results[i] = got
			r.Close()
		}(i, r)
	}

	if _, err := snd.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- snd.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sender Close timed out")
	}
	wg.Wait()
	return results
}

func TestLiveTransferLossless(t *testing.T) {
	hub := transport.NewHub()
	want := make([]byte, 200<<10)
	app.FillPattern(want, 0)
	results := runTransfer(t, hub, 3, len(want),
		sender.Config{SndBuf: 128 << 10},
		receiver.Config{RcvBuf: 128 << 10})
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("receiver %d got %d bytes, want %d (content match: %v)",
				i, len(got), len(want), bytes.Equal(got, want))
		}
	}
}

func TestLiveTransferWithLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy live transfer takes a few wall-clock seconds")
	}
	hub := transport.NewHub(transport.WithLoss(0.02, 1), transport.WithDelay(2*time.Millisecond))
	want := make([]byte, 100<<10)
	app.FillPattern(want, 0)
	results := runTransfer(t, hub, 2, len(want),
		sender.Config{SndBuf: 64 << 10},
		receiver.Config{RcvBuf: 64 << 10})
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("receiver %d: %d bytes, equal=%v", i, len(got), bytes.Equal(got, want))
		}
	}
}

func TestSenderAbortUnblocksWriters(t *testing.T) {
	hub := transport.NewHub()
	// No receivers and ExpectedReceivers=1: the window can never
	// release, so a large Write must block until Abort.
	snd := NewSender(hub.Endpoint(), sender.Config{
		SndBuf: 16 << 10, ExpectedReceivers: 1,
	})
	errCh := make(chan error, 1)
	go func() {
		_, err := snd.Write(make([]byte, 1<<20))
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	snd.Abort()
	select {
	case err := <-errCh:
		if err != ErrAborted {
			t.Errorf("blocked Write returned %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock Write")
	}
}

func TestReceiverCloseUnblocksRead(t *testing.T) {
	hub := transport.NewHub()
	rcv := NewReceiver(hub.Endpoint(), receiver.Config{})
	errCh := make(chan error, 1)
	go func() {
		_, err := rcv.Read(make([]byte, 10))
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	rcv.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("Read returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Read")
	}
}

func TestHubLossAndDeterminism(t *testing.T) {
	// Direct hub-level checks: unicast goes to one endpoint, multicast
	// to all others.
	hub := transport.NewHub()
	a, b, c := hub.Endpoint(), hub.Endpoint(), hub.Endpoint()
	pkt := testPacket()
	send := func(tr transport.Transport, multicast bool, to packet.NodeID) error {
		return tr.SendBatch([]transport.Envelope{{Pkt: pkt, Multicast: multicast, To: to}})
	}
	recv := func(tr transport.Transport) (*packet.Packet, packet.NodeID, error) {
		var one [1]transport.Envelope
		_, err := tr.RecvBatch(one[:])
		return one[0].Pkt, one[0].From, err
	}
	if err := send(a, true, 0); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []transport.Transport{b, c} {
		got, from, err := recv(ep)
		if err != nil || got.Seq != pkt.Seq || from != a.Local() {
			t.Fatalf("multicast recv: %v %v %v", got, from, err)
		}
	}
	if err := send(b, false, a.Local()); err != nil {
		t.Fatal(err)
	}
	got, from, err := recv(a)
	if err != nil || from != b.Local() || got.Seq != pkt.Seq {
		t.Fatalf("unicast recv: %v %v %v", got, from, err)
	}
	a.Close()
	if _, _, err := recv(a); err != transport.ErrClosed {
		t.Errorf("Recv after Close = %v, want ErrClosed", err)
	}
	// A closed endpoint no longer receives multicast.
	if err := send(b, true, 0); err != nil {
		t.Fatal(err)
	}
	got2, _, _ := recv(c)
	if got2 == nil {
		t.Error("open endpoint missed multicast after peer close")
	}
}

func testPacket() *packet.Packet {
	return &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: 77}}
}
