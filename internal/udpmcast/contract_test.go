package udpmcast

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// The endpoint contract: the same assertions over every way this
// repository opens a transport — a hub pair, NewSenderTransport +
// NewReceiverTransport, and a NewGroupTransport pair.

// contractRig is one multicasting endpoint and one endpoint that has
// joined the group it multicasts to.
type contractRig struct {
	tx, rx transport.GroupTransport
	// group addresses tx's multicast to rx and is the tag rx sees on
	// it: 0 where the pair talks over a default group.
	group transport.GroupID
	// extra names one more group, for the tagged-group case.
	extra string
	// hub marks the in-memory pair: node 0 is a real endpoint there, an
	// unknown unicast target is dropped like the network would, and
	// delivery is synchronous.
	hub bool
}

const contractPort = 39881

var contractKinds = []struct {
	name string
	open func(t *testing.T) contractRig
}{
	{"hub", func(t *testing.T) contractRig {
		hub := transport.NewHub()
		return contractRig{
			tx:    hub.Endpoint().(transport.GroupTransport),
			rx:    hub.Endpoint().(transport.GroupTransport),
			extra: "extra",
			hub:   true,
		}
	}},
	{"sender+receiver", func(t *testing.T) contractRig {
		group := fmt.Sprintf("239.66.78.1:%d", contractPort)
		rx, err := NewReceiverTransport(group, loopbackInterface(t))
		if err != nil {
			t.Skipf("cannot join group: %v", err)
		}
		t.Cleanup(func() { rx.Close() })
		tx, err := NewSenderTransport(group, WithEgressIP(net.IPv4(127, 0, 0, 1)))
		if err != nil {
			t.Skipf("cannot open sender endpoint: %v", err)
		}
		t.Cleanup(func() { tx.Close() })
		return contractRig{tx: tx, rx: rx, extra: "239.66.78.2"}
	}},
	{"group pair", func(t *testing.T) contractRig {
		cfg := GroupConfig{Port: contractPort + 1, Loopback: true}
		rx, err := NewGroupTransport(cfg)
		if err != nil {
			t.Skipf("group endpoint unavailable: %v", err)
		}
		t.Cleanup(func() { rx.Close() })
		tx, err := NewGroupTransport(cfg)
		if err != nil {
			t.Skipf("group endpoint unavailable: %v", err)
		}
		t.Cleanup(func() { tx.Close() })
		gid, err := rx.Join("239.66.78.3")
		if err == nil {
			_, err = tx.Register("239.66.78.3")
		}
		if err != nil {
			t.Skipf("cannot join group: %v", err)
		}
		return contractRig{tx: tx, rx: rx, group: gid, extra: "239.66.78.4"}
	}},
}

func dataEnv(seq uint32, payload []byte, g transport.GroupID) transport.Envelope {
	return transport.Envelope{
		Pkt: &packet.Packet{
			Header:  packet.Header{Type: packet.TypeData, Seq: seq, Length: uint32(len(payload))},
			Payload: payload,
		},
		Multicast: true,
		Group:     g,
	}
}

func unicastEnv(seq uint32, to packet.NodeID) transport.Envelope {
	return transport.Envelope{Pkt: &packet.Packet{Header: packet.Header{Type: packet.TypeUpdate, Seq: seq}}, To: to}
}

// recvN collects exactly n envelopes from tr through a bufLen-slot
// buffer, checking every call's count against the buffer bound. A
// watchdog closes tr rather than let a lost datagram hang the test.
func recvN(t *testing.T, tr transport.Transport, bufLen, n int) []transport.Envelope {
	t.Helper()
	stop := time.AfterFunc(10*time.Second, func() { tr.Close() })
	defer stop.Stop()
	buf := make([]transport.Envelope, bufLen)
	var got []transport.Envelope
	for len(got) < n {
		k, err := tr.RecvBatch(buf)
		if err != nil {
			t.Fatalf("RecvBatch after %d of %d envelopes: %v", len(got), n, err)
		}
		if k < 1 || k > bufLen {
			t.Fatalf("RecvBatch returned %d envelopes with buffer %d", k, bufLen)
		}
		got = append(got, buf[:k]...)
		clear(buf)
	}
	if len(got) != n {
		t.Fatalf("received %d envelopes, want %d", len(got), n)
	}
	return got
}

// hear multicasts one packet from tx and returns tx's node ID as rx
// sees it.
func (r contractRig) hear(t *testing.T) packet.NodeID {
	t.Helper()
	if err := r.tx.SendBatch([]transport.Envelope{dataEnv(1, nil, r.group)}); err != nil {
		t.Fatalf("multicast: %v", err)
	}
	got := recvN(t, r.rx, 4, 1)
	defer transport.ReleaseEnvelopes(got)
	return got[0].From
}

// sendErrors reads the endpoint's SendErrors counter.
func sendErrors(tr transport.Transport) int64 {
	return tr.(transport.GroupReporter).GroupStats().SendErrors
}

func TestEndpointContract(t *testing.T) {
	multicast := multicastAvailable(t)
	for _, kind := range contractKinds {
		t.Run(kind.name, func(t *testing.T) {
			if kind.name != "hub" && !multicast {
				t.Skip("IP multicast not available in this environment")
			}
			t.Run("batch round-trip is bit-exact", func(t *testing.T) {
				r := kind.open(t)
				const n = 40
				env := make([]transport.Envelope, n)
				for i := range env {
					env[i] = dataEnv(uint32(i), bytes.Repeat([]byte{byte(i)}, 1000), r.group)
				}
				if err := r.tx.SendBatch(env); err != nil {
					t.Fatal(err)
				}
				got := recvN(t, r.rx, 16, n)
				for i, e := range got {
					want := bytes.Repeat([]byte{byte(e.Pkt.Seq)}, 1000)
					if e.Pkt.Type != packet.TypeData || !bytes.Equal(e.Pkt.Payload, want) {
						t.Fatalf("envelope %d (seq %d): header or payload differs from what was sent", i, e.Pkt.Seq)
					}
					if e.Group != r.group || e.From != got[0].From {
						t.Fatalf("envelope %d: group %v from %v, want group %v from %v", i, e.Group, e.From, r.group, got[0].From)
					}
				}
				if r.hub && got[0].From != r.tx.Local() {
					t.Errorf("hub source = %v, want %v", got[0].From, r.tx.Local())
				}
				if !r.hub && got[0].From < peerIDBase {
					t.Errorf("learned peer ID %v below peerIDBase", got[0].From)
				}
				transport.ReleaseEnvelopes(got)
			})

			t.Run("tagged group both ways", func(t *testing.T) {
				r := kind.open(t)
				gid, err := r.rx.Join(r.extra)
				if errors.Is(err, ErrGroupUnsupported) {
					t.Skip("one joined group per endpoint on this platform")
				}
				if err != nil {
					t.Fatal(err)
				}
				if g, err := r.tx.Register(r.extra); err != nil || g != gid {
					t.Fatalf("Register = %v, %v; want %v", g, err, gid)
				}
				// Outbound the tag selects the group; inbound it names
				// the group the packet arrived on — next to the pair's
				// own group, which keeps its tag.
				if err := r.tx.SendBatch([]transport.Envelope{dataEnv(7, nil, gid), dataEnv(8, nil, r.group)}); err != nil {
					t.Fatal(err)
				}
				got := recvN(t, r.rx, 4, 2)
				for _, e := range got {
					want := gid
					if e.Pkt.Seq == 8 {
						want = r.group
					}
					if e.Group != want {
						t.Errorf("seq %d arrived tagged %v, want %v", e.Pkt.Seq, e.Group, want)
					}
				}
				// Unicast back arrives untagged.
				if err := r.rx.SendBatch([]transport.Envelope{unicastEnv(9, got[0].From)}); err != nil {
					t.Fatal(err)
				}
				transport.ReleaseEnvelopes(got)
				back := recvN(t, r.tx, 4, 1)
				if back[0].Group != 0 || back[0].Pkt.Seq != 9 {
					t.Errorf("unicast arrived as seq %d group %v, want seq 9 group 0", back[0].Pkt.Seq, back[0].Group)
				}
				transport.ReleaseEnvelopes(back)
			})

			t.Run("To unset", func(t *testing.T) {
				r := kind.open(t)
				if r.hub {
					t.Skip("node 0 is a real endpoint on a hub")
				}
				before := sendErrors(r.rx)
				if err := r.rx.SendBatch([]transport.Envelope{unicastEnv(1, 0)}); err == nil {
					t.Error("unicast with To unset before any source was heard succeeded")
				}
				if sendErrors(r.rx) != before+1 {
					t.Error("the failed unicast was not counted in SendErrors")
				}
				r.hear(t)
				err := r.rx.SendBatch([]transport.Envelope{unicastEnv(2, 0)})
				if r.group != 0 {
					// No default group, so no default sender either.
					if err == nil {
						t.Error("unicast with To unset succeeded on an endpoint without a default group")
					}
					return
				}
				if err != nil {
					t.Fatalf("unicast with To unset after the sender was heard: %v", err)
				}
				back := recvN(t, r.tx, 4, 1)
				if back[0].Pkt.Seq != 2 || back[0].Group != 0 || back[0].From < peerIDBase {
					t.Errorf("feedback arrived as %+v (seq %d)", back[0], back[0].Pkt.Seq)
				}
				transport.ReleaseEnvelopes(back)
				// The default group is group 0 outbound on the receiving
				// end too: its multicast needs no sender address, and it
				// hears itself over multicast loopback, untagged.
				if err := r.rx.SendBatch([]transport.Envelope{dataEnv(3, nil, 0)}); err != nil {
					t.Fatalf("receiver multicast: %v", err)
				}
				self := recvN(t, r.rx, 4, 1)
				if self[0].Pkt.Seq != 3 || self[0].Group != 0 {
					t.Errorf("own multicast arrived as seq %d group %v, want seq 3 group 0", self[0].Pkt.Seq, self[0].Group)
				}
				transport.ReleaseEnvelopes(self)
			})

			t.Run("bad destinations fail after the rest is sent", func(t *testing.T) {
				r := kind.open(t)
				env := []transport.Envelope{
					dataEnv(1, nil, r.group),
					unicastEnv(2, peerIDBase+99), // nobody
					dataEnv(3, nil, r.group),
				}
				err := r.tx.SendBatch(env)
				got := recvN(t, r.rx, 4, 2)
				if got[0].Pkt.Seq != 1 || got[1].Pkt.Seq != 3 {
					t.Errorf("the rest of the batch arrived as seqs %d, %d; want 1, 3", got[0].Pkt.Seq, got[1].Pkt.Seq)
				}
				transport.ReleaseEnvelopes(got)
				if r.hub {
					if err != nil {
						t.Errorf("hub unicast to an unknown node: %v, want a silent drop", err)
					}
					return
				}
				if err == nil {
					t.Error("unicast to an unknown node succeeded")
				}
				if n := sendErrors(r.tx); n != 1 {
					t.Errorf("SendErrors = %d after one unknown node, want 1", n)
				}
				if err := r.tx.SendBatch([]transport.Envelope{dataEnv(4, nil, 12345), dataEnv(5, nil, r.group)}); err == nil {
					t.Error("multicast to an unregistered group succeeded")
				}
				if n := sendErrors(r.tx); n != 2 {
					t.Errorf("SendErrors = %d after an unregistered group too, want 2", n)
				}
				got = recvN(t, r.rx, 4, 1)
				if got[0].Pkt.Seq != 5 {
					t.Errorf("seq %d arrived after the unregistered-group failure, want 5", got[0].Pkt.Seq)
				}
				transport.ReleaseEnvelopes(got)
			})

			t.Run("partial fill loses nothing", func(t *testing.T) {
				r := kind.open(t)
				// Blast more unicast at tx than one RecvBatch buffer
				// holds: every packet arrives exactly once across several
				// partially filled calls, all from one learned peer.
				to := r.hear(t)
				const total = 12
				env := make([]transport.Envelope, total)
				for i := range env {
					env[i] = unicastEnv(uint32(100+i), to)
				}
				if err := r.rx.SendBatch(env); err != nil {
					t.Fatal(err)
				}
				got := recvN(t, r.tx, 4, total)
				seen := make(map[uint32]int)
				for _, e := range got {
					seen[e.Pkt.Seq]++
					if e.From != got[0].From {
						t.Errorf("one source got two node IDs: %v and %v", got[0].From, e.From)
					}
				}
				for i := 0; i < total; i++ {
					if seen[uint32(100+i)] != 1 {
						t.Errorf("seq %d delivered %d times, want 1", 100+i, seen[uint32(100+i)])
					}
				}
				transport.ReleaseEnvelopes(got)
			})

			t.Run("Close drains then ErrClosed and the pool balances", func(t *testing.T) {
				outstanding := func() int64 {
					c := packet.PoolStats()
					return c.Gets - c.Puts
				}
				before := outstanding()
				r := kind.open(t)
				const n = 5
				env := make([]transport.Envelope, n)
				for i := range env {
					env[i] = dataEnv(uint32(i), []byte{1, 2, 3}, r.group)
				}
				if err := r.tx.SendBatch(env); err != nil {
					t.Fatal(err)
				}
				// Wait until all n sit in rx's inbox (hub delivery is
				// synchronous), then close under them.
				for deadline := time.Now().Add(5 * time.Second); !r.hub; time.Sleep(time.Millisecond) {
					if r.rx.(transport.GroupReporter).GroupStats().PktsIn >= n {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("multicast never reached the inbox")
					}
				}
				for _, tr := range []transport.Transport{r.rx, r.tx} {
					if err := tr.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
					if err := tr.Close(); err != nil {
						t.Errorf("second Close: %v", err)
					}
				}
				buf := make([]transport.Envelope, 2)
				drained := 0
				for {
					k, err := r.rx.RecvBatch(buf)
					if err != nil {
						if err != transport.ErrClosed {
							t.Errorf("RecvBatch after Close = %v, want ErrClosed", err)
						}
						break
					}
					drained += k
					transport.ReleaseEnvelopes(buf[:k])
				}
				if drained != n {
					t.Errorf("drained %d envelopes after Close, want %d", drained, n)
				}
				if _, err := r.tx.RecvBatch(buf); err != transport.ErrClosed {
					t.Errorf("RecvBatch on the closed sender = %v, want ErrClosed", err)
				}
				if after := outstanding(); after != before {
					t.Errorf("pool has %d packets checked out, %d before", after, before)
				}
			})
		})
	}
}
