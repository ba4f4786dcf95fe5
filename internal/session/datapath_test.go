package session

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/sender"
	"repro/internal/transport"
)

// TestSessionPoolBalanceUnderConcurrentAbort drives the zero-copy
// datapath's ownership contract under the race detector: half the
// flows transfer to completion while the other half are aborted
// concurrently, mid-stream, while the shared send poller is draining
// their staged packets. Every pooled buffer — window-held data on both
// sides, staged sends in flight, demux drops — must come back: the
// pool's get/put counters have to balance once the session is closed
// and every reader has drained.
func TestSessionPoolBalanceUnderConcurrentAbort(t *testing.T) {
	const (
		groups = 12
		size   = 256 << 10
	)
	before := packet.PoolStats()
	hub := transport.NewHub()
	sess := New(Config{})

	var readers, writers sync.WaitGroup
	var toAbort []*SenderFlow
	var pairs []flowPair
	for g := 0; g < groups; g++ {
		sp, rp := groupPorts(g)
		data := make([]byte, size)
		app.FillPattern(data, int64(g)<<20)
		rf, err := sess.OpenReceiver(hub.Endpoint(), receiver.Config{
			LocalPort: rp, RemotePort: sp, RcvBuf: 64 << 10,
		})
		if err != nil {
			t.Fatalf("OpenReceiver g%d: %v", g, err)
		}
		sf, err := sess.OpenSender(hub.Endpoint(), sender.Config{
			LocalPort: sp, RemotePort: rp, SndBuf: 64 << 10,
			ExpectedReceivers: 1, Rate: fastRate(),
		})
		if err != nil {
			t.Fatalf("OpenSender g%d: %v", g, err)
		}
		pairs = append(pairs, flowPair{sf, rf})
		if g < groups/2 {
			// Full transfer: must still be bit-exact with aborts
			// happening on neighboring flows.
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				got, err := io.ReadAll(rf)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("group %d delivery: err=%v equal=%v", g, err, bytes.Equal(got, data))
				}
			}(g)
			writers.Add(1)
			go func(g int) {
				defer writers.Done()
				if _, err := sf.Write(data); err != nil {
					t.Errorf("group %d write: %v", g, err)
				}
				if err := sf.Close(); err != nil {
					t.Errorf("group %d close: %v", g, err)
				}
			}(g)
		} else {
			// Abort mid-stream: the writer pushes an endless stream so
			// the window stays full and the poller stays busy; both
			// sides are torn down while packets are staged and held.
			toAbort = append(toAbort, sf)
			readers.Add(1)
			go func() {
				defer readers.Done()
				_, _ = io.Copy(io.Discard, rf)
			}()
			writers.Add(1)
			go func() {
				defer writers.Done()
				_, _ = sf.Write(make([]byte, 16<<20))
			}()
		}
	}

	defer bound(t, "pool balance", pairs...)()
	// Let every flow get airborne, then abort the victims concurrently
	// while the survivors keep the poller mid-batch.
	time.Sleep(30 * time.Millisecond)
	var ab sync.WaitGroup
	for _, sf := range toAbort {
		ab.Add(1)
		go func(sf *SenderFlow) {
			defer ab.Done()
			sf.Abort()
		}(sf)
	}
	ab.Wait()
	writers.Wait()

	// Close drains the survivors and fails the orphaned receivers;
	// their readers drain any still-buffered data (recycling it) and
	// exit. ErrAborted from the aborted flows' drain is expected.
	if err := sess.Close(); err != nil && err != ErrAborted {
		t.Errorf("session close: %v", err)
	}
	readers.Wait()

	after := packet.PoolStats()
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets != puts {
		t.Errorf("pool imbalance after close: gets +%d, puts +%d (leaked %d)",
			gets, puts, gets-puts)
	}
	if gets == 0 {
		t.Error("pool saw no traffic — test exercised nothing")
	}
}

// TestSessionGoroutinesScaleWithTransports pins the shared-poller
// model: a session's goroutine count is one driver, one send poller,
// and one receive loop per transport — admitting 63 more flow
// pairs onto the same two endpoints must not grow it.
func TestSessionGoroutinesScaleWithTransports(t *testing.T) {
	const (
		flows = 64
		size  = 8 << 10
	)
	hub := transport.NewHub()
	sess := New(Config{})
	defer sess.Abort()
	sndEp, rcvEp := hub.Endpoint(), hub.Endpoint()

	open := func(g int) flowPair {
		return openPair(t, sess, sndEp, rcvEp, g, FlowSpec{Buf: 32 << 10, MinRateBps: 1e6, MaxRateBps: 64e6})
	}

	pairs := make([]flowPair, 0, flows)
	pairs = append(pairs, open(0))
	time.Sleep(20 * time.Millisecond) // both recv loops running
	base := runtime.NumGoroutine()

	for g := 1; g < flows; g++ {
		pairs = append(pairs, open(g))
	}
	time.Sleep(20 * time.Millisecond)
	admitted := runtime.NumGoroutine()
	// Slack absorbs unrelated runtime/test goroutines winding up or
	// down; the per-flow goroutine pair this replaces would add 126.
	if grown := admitted - base; grown > 3 {
		t.Errorf("admitting %d more flow pairs grew goroutines by %d (base %d); want O(transports + const)",
			flows-1, grown, base)
	}

	// The count must hold with every flow live, not just idle: run a
	// small transfer on each and re-sample after they finish.
	pattern := make([]byte, size+flows)
	app.FillPattern(pattern, 0)
	transferAll(t, pairs, pattern, size)
	time.Sleep(20 * time.Millisecond)
	if grown := runtime.NumGoroutine() - base; grown > 3 {
		t.Errorf("after %d concurrent transfers goroutines grew by %d (base %d); want O(transports + const)",
			flows, grown, base)
	}
}
