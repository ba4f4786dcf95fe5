package session

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/transport"
)

// TestSessionGroupAddressedFlows runs a transfer over the hub's
// group-addressed multicast through the canonical FlowSpec path and
// pins the demux contract: the sender's traffic reaches only members
// of its group, a forged stream addressed to a different group the
// transport happens to be joined to is dropped by the flow's group
// check even though its header ports match, and every flow's Group tag
// round-trips into the session snapshot.
func TestSessionGroupAddressedFlows(t *testing.T) {
	const size = 16 << 10
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Abort()

	sndEp := hub.Endpoint().(transport.GroupTransport)
	rcvEp := hub.Endpoint().(transport.GroupTransport)
	strayEp := hub.Endpoint().(transport.GroupTransport)

	gidA, err := sndEp.Register("239.10.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if g, err := rcvEp.Join("239.10.0.1"); err != nil || g != gidA {
		t.Fatalf("receiver join: got (%v, %v), want (%v, nil)", g, err, gidA)
	}
	// The receiver's transport is also joined to a second group — the
	// shared-shard situation — but the flow below belongs only to gidA.
	gidB, err := rcvEp.Join("239.10.0.2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strayEp.Register("239.10.0.2"); err != nil {
		t.Fatal(err)
	}

	sp, rp := groupPorts(0)
	rf, err := sess.OpenReceiverFlow(rcvEp, FlowSpec{
		Kind: KindReceiver, Label: "a-rcv",
		LocalPort: rp, PeerPort: sp, Buf: 64 << 10, Group: gidA,
	})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sess.OpenSenderFlow(sndEp, FlowSpec{
		Kind: KindSender, Label: "a-snd",
		LocalPort: sp, PeerPort: rp, Buf: 64 << 10, Receivers: 1,
		MinRateBps: 1e6, MaxRateBps: 64e6, Group: gidA,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Forge a garbage stream into group B with header ports that match
	// the receiver flow exactly. The transport delivers it (it is a
	// member of B); the flow's group check must discard every packet, or
	// the real transfer below is corrupted.
	for seq := uint32(0); seq < 8; seq++ {
		garbage := bytes.Repeat([]byte{0xC7}, 512)
		forged := &packet.Packet{
			Header: packet.Header{
				SrcPort: sp, DstPort: rp,
				Type: packet.TypeData, Seq: seq, Length: uint32(len(garbage)),
			},
			Payload: garbage,
		}
		if err := strayEp.SendBatch([]transport.Envelope{
			{Pkt: forged, Multicast: true, Group: gidB},
		}); err != nil {
			t.Fatalf("forged send: %v", err)
		}
	}

	data := make([]byte, size)
	app.FillPattern(data, 42<<20)
	defer bound(t, "group-addressed", flowPair{sf, rf})()
	done := make(chan error, 1)
	go func() {
		if _, err := sf.Write(data); err != nil {
			done <- err
			return
		}
		done <- sf.Close()
	}()
	got, err := io.ReadAll(rf)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("delivered stream differs: got %d bytes, want %d (forged group-B data leaked into the flow?)", len(got), len(data))
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}

	// The Group tag survives into the snapshot for both flows.
	snap := sess.Snapshot()
	tags := map[string]transport.GroupID{}
	for _, fs := range snap.Flows {
		tags[fs.Label] = fs.Group
	}
	if tags["a-snd"] != gidA || tags["a-rcv"] != gidA {
		t.Errorf("snapshot group tags = %v, want both %v", tags, gidA)
	}
}
