package session

import (
	"testing"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/transport"
)

// TestSessionFecDatapathPoolBalance drives FEC flows over a lossy hub
// with receive-window recycling live (session receivers always recycle):
// the receiver's parity group cache takes and releases its own pool
// references alongside the window's, so every transfer must end
// bit-exact with the pool's get/put counters balanced — under the race
// detector this doubles as the use-after-free proof for cache-held
// buffers.
func TestSessionFecDatapathPoolBalance(t *testing.T) {
	const (
		groups = 4
		size   = 256 << 10
	)
	before := packet.PoolStats()
	hub := transport.NewHub(transport.WithLoss(0.02, 11))
	sess := New(Config{})

	pairs := make([]flowPair, groups)
	for g := range pairs {
		pairs[g] = openPair(t, sess, hub.Endpoint(), hub.Endpoint(), g, FlowSpec{
			Buf: 64 << 10, MinRateBps: 1e6, MaxRateBps: 64e6, Fec: FecConfig{Enabled: true, K: 8},
		})
	}
	pattern := make([]byte, size+groups)
	app.FillPattern(pattern, 0)
	transferAll(t, pairs, pattern, size)
	if err := sess.Close(); err != nil {
		t.Errorf("session close: %v", err)
	}

	// Stats are read only now, after Close stopped the tick loop.
	var recovered, parity int64
	for _, p := range pairs {
		parity += p.sf.Stats().FecParitySent
		recovered += p.rf.Stats().FecRecovered
	}
	if parity == 0 {
		t.Error("no parity sent — FEC flow option did not reach the senders")
	}
	if recovered == 0 {
		t.Error("no local recoveries across 2%-loss flows — parity path exercised nothing")
	}
	after := packet.PoolStats()
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets != puts {
		t.Errorf("pool imbalance after close: gets +%d, puts +%d (leaked %d)",
			gets, puts, gets-puts)
	}
}
