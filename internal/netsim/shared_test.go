package netsim

import (
	"bytes"
	"testing"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/receiver"
	"repro/internal/repair"
	"repro/internal/sender"
	"repro/internal/sim"
)

// TestSharedDeliveryIsReadOnly holds the contract that lets the network
// hand one copy of a routed packet to every host it reaches: no machine
// writes to a packet it is handed. One lossy run exercises every kind of
// receiver there is — a repair head and its leaves in one group, peers
// under local recovery in another, all with FEC — and every shared copy
// must end the run with the header and payload it had when it was
// routed.
func TestSharedDeliveryIsReadOnly(t *testing.T) {
	const size = 512 << 10
	net := New(DefaultConfig(Rate10Mbps, 17))
	rc := rate.DefaultConfig()
	rc.MaxRate = Rate10Mbps
	net.AddSender(sender.New(sender.Config{
		SndBuf: 128 << 10, Mode: sender.HRMC, Rate: rc, FECGroupSize: 8, LocalRecovery: true,
		InitialRTT: 100 * sim.Millisecond,
	}), app.NewMemorySource(size))
	tier := Group{Name: "tier", Delay: 10 * sim.Millisecond, Loss: 0.03}
	net.AddReceiver(receiver.New(receiver.Config{
		LocalAddr: 1, RcvBuf: 128 << 10, FECGroupSize: 8, Head: &repair.Config{},
	}), tier, nil)
	for id := packet.NodeID(2); id <= 4; id++ {
		net.AddReceiver(receiver.New(receiver.Config{
			LocalAddr: id, RcvBuf: 128 << 10, FECGroupSize: 8, RepairHead: 1,
		}), tier, nil)
	}
	peers := Group{Name: "peers", Delay: 20 * sim.Millisecond, Loss: 0.05}
	for id := packet.NodeID(5); id <= 8; id++ {
		net.AddReceiver(receiver.New(receiver.Config{
			LocalAddr: id, RcvBuf: 128 << 10, FECGroupSize: 8, LocalRecovery: true,
			AssumedRTT: 2 * peers.Delay,
		}), peers, nil)
	}
	type routed struct{ shared, was *packet.Packet }
	var all []routed
	net.OnShared(func(p *packet.Packet) { all = append(all, routed{p, p.Clone()}) })
	if res := net.Run(600 * sim.Second); !res.Completed || res.NICDrops+res.RouterDrops == 0 {
		t.Fatalf("completed %v with %d drops: want a lossy transfer that completes", res.Completed, res.NICDrops+res.RouterDrops)
	}
	var answered, peerRepairs, parity int64
	for _, r := range net.Receivers() {
		st := r.M.Stats()
		if r.Received != size || r.BadBytes != 0 {
			t.Errorf("host %d delivered %d bytes (%d bad), want %d exact", r.ID(), r.Received, r.BadBytes, size)
		}
		answered += st.HeadNaksAnswered
		peerRepairs += st.RepairsSent
		parity += st.FecRecovered
	}
	if answered == 0 || peerRepairs == 0 || parity == 0 {
		t.Fatalf("head answers %d, peer repairs %d, FEC recoveries %d: every path must run", answered, peerRepairs, parity)
	}
	changed := 0
	for _, r := range all {
		if r.shared.Header != r.was.Header || !bytes.Equal(r.shared.Payload, r.was.Payload) {
			if changed++; changed <= 3 {
				t.Errorf("a shared %v (seq %d) changed after it was routed: header %+v -> %+v",
					r.was.Type, r.was.Seq, r.was.Header, r.shared.Header)
			}
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d shared packets were written to by a machine", changed, len(all))
	}
	t.Logf("%d shared packets checked; head answers %d, peer repairs %d, FEC recoveries %d", len(all), answered, peerRepairs, parity)
}
