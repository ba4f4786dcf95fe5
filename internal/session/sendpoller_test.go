package session

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/transport"
)

// TestSessionShardedSendPollers runs concurrent flows through a session
// configured with several send pollers: transports must spread across
// the shards round-robin, every flow must deliver bit-exact, and Close
// must still tear the pollers down cleanly.
func TestSessionShardedSendPollers(t *testing.T) {
	const (
		pollers = 4
		groups  = 6
		size    = 16 << 10
	)
	hub := transport.NewHub(transport.WithLoss(0.005, 11), transport.WithDelay(time.Millisecond))
	sess := New(Config{SendPollers: pollers})
	defer sess.Close()

	if got := len(sess.sendShards); got != pollers {
		t.Fatalf("session has %d send shards, want %d", got, pollers)
	}

	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		sp, rp := groupPorts(g)
		data := make([]byte, size)
		app.FillPattern(data, int64(g)<<18)
		rf, err := sess.OpenReceiver(hub.Endpoint(), receiver.Config{
			LocalPort: rp, RemotePort: sp, RcvBuf: 64 << 10,
		}, withLabel(fmt.Sprintf("g%d-rcv", g)))
		if err != nil {
			t.Fatalf("OpenReceiver g%d: %v", g, err)
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
		sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{
			LocalPort: sp, RemotePort: rp, SndBuf: 64 << 10,
			ExpectedReceivers: 1, Rate: fastRate(),
		}, withLabel(fmt.Sprintf("g%d-snd", g)))
		if err != nil {
			t.Fatalf("OpenSender g%d: %v", g, err)
		}
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
	wg.Wait()

	// With 2*groups transports attached round-robin, every shard must
	// have been assigned at least one.
	sess.mu.Lock()
	assigned := sess.nextShard
	sess.mu.Unlock()
	if assigned < pollers {
		t.Errorf("only %d transports attached across %d shards", assigned, pollers)
	}
}
