package session

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/transport"
)

// TestShortStreamsReleaseOverLossyHub runs six short streams at once
// over a hub that drops and delays deliveries: every flow must deliver
// bit-exact and every sender's Close must return. A lost JOIN on a short
// stream once stranded its sender here one run in twenty.
func TestShortStreamsReleaseOverLossyHub(t *testing.T) {
	const (
		groups = 6
		size   = 16 << 10
	)
	hub := transport.NewHub(transport.WithLoss(0.005, 11), transport.WithDelay(time.Millisecond))
	sess := New(Config{})
	defer sess.Close()

	var wg sync.WaitGroup
	var pairs []flowPair
	for g := 0; g < groups; g++ {
		sp, rp := groupPorts(g)
		data := make([]byte, size)
		app.FillPattern(data, int64(g)<<18)
		rf, err := sess.OpenReceiverFlow(hub.Endpoint(), FlowSpec{
			Kind: KindReceiver, Label: fmt.Sprintf("g%d-rcv", g),
			LocalPort: rp, PeerPort: sp, Buf: 64 << 10,
		})
		if err != nil {
			t.Fatalf("OpenReceiverFlow g%d: %v", g, err)
		}
		wg.Add(1)
		go func(g int, rf *ReceiverFlow) {
			defer wg.Done()
			got, err := io.ReadAll(rf)
			if err != nil {
				t.Errorf("group %d receiver: %v", g, err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("group %d receiver: got %d bytes, want %d", g, len(got), len(data))
			}
		}(g, rf)
		sf, err := sess.OpenSenderFlow(hub.Endpoint(), FlowSpec{
			Kind: KindSender, Label: fmt.Sprintf("g%d-snd", g),
			LocalPort: sp, PeerPort: rp, Buf: 64 << 10, Receivers: 1,
			MinRateBps: 1e6, MaxRateBps: 64e6,
		})
		if err != nil {
			t.Fatalf("OpenSenderFlow g%d: %v", g, err)
		}
		pairs = append(pairs, flowPair{sf, rf})
		wg.Add(1)
		go func(g int, sf *SenderFlow) {
			defer wg.Done()
			if _, err := sf.Write(data); err != nil {
				t.Errorf("group %d sender write: %v", g, err)
			}
			if err := sf.Close(); err != nil {
				t.Errorf("group %d sender close: %v", g, err)
			}
		}(g, sf)
	}
	defer bound(t, "short streams", pairs...)()
	wg.Wait()
}

// A receiver's feedback goes to its sender, not to whoever spoke first.
// A third endpoint sends one NAK, UPDATE or DATA to the receiver's port,
// from a port that is not the sender's, before the sender's first
// packet; the 32 KiB transfer must still arrive bit-exact and release.
// Had the stray's node become the sender, every JOIN and UPDATE would go
// to it and a sender expecting one receiver would never release.
func TestStrayFirstPacketIsNotTheSender(t *testing.T) {
	const size = 32 << 10
	data := make([]byte, size)
	app.FillPattern(data, 7)
	for _, typ := range []packet.Type{packet.TypeNak, packet.TypeUpdate, packet.TypeData} {
		t.Run(typ.String(), func(t *testing.T) {
			hub := transport.NewHub()
			sess := New(Config{})
			defer sess.Abort()
			sp, rp := groupPorts(0)
			rcvEp, sndEp, strayEp := hub.Endpoint(), hub.Endpoint(), hub.Endpoint()
			rf, err := sess.OpenReceiverFlow(rcvEp, FlowSpec{Kind: KindReceiver, LocalPort: rp, PeerPort: sp, Buf: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			// Far past the receive window, so a stray DATA is not stored.
			stray := &packet.Packet{Header: packet.Header{Type: typ, SrcPort: sp + 50, DstPort: rp, Seq: 1 << 20}}
			if err := strayEp.SendBatch([]transport.Envelope{{Pkt: stray, To: rcvEp.Local()}}); err != nil {
				t.Fatal(err)
			}
			sf, err := sess.OpenSenderFlow(sndEp, FlowSpec{
				Kind: KindSender, LocalPort: sp, PeerPort: rp, Buf: 64 << 10, Receivers: 1,
				MinRateBps: 1e6, MaxRateBps: 64e6,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer bound(t, "stray "+typ.String(), flowPair{sf, rf})()
			got := make(chan []byte, 1)
			go func() {
				b, _ := io.ReadAll(rf)
				got <- b
			}()
			closed := make(chan error, 1)
			go func() {
				_, _ = sf.Write(data)
				closed <- sf.Close()
			}()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("sender close: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("sender never released after a stray %v: %d members joined", typ, sf.Members())
			}
			if b := <-got; !bytes.Equal(b, data) {
				t.Errorf("delivered %d bytes, not the %d sent", len(b), size)
			}
		})
	}
}
