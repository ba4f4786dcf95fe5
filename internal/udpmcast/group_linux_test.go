//go:build linux && (amd64 || arm64)

package udpmcast

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

const groupTestPort = 39911

// groupAddr returns the i-th test group address (i < 64516).
func groupAddr(i int) string {
	return fmt.Sprintf("239.77.%d.%d:%d", 1+i/254, 1+i%254, groupTestPort)
}

// newTestGroupTransport opens a loopback-confined many-group endpoint or
// skips the test when the environment forbids it.
func newTestGroupTransport(t *testing.T, port int) *Endpoint {
	t.Helper()
	gt, err := NewGroupTransport(GroupConfig{Port: port, Loopback: true})
	if err != nil {
		t.Skipf("group transport unavailable: %v", err)
	}
	t.Cleanup(func() { gt.Close() })
	return gt
}

// groupMulticastWorks probes whether loopback multicast actually moves
// a tagged packet between two group transports in this environment.
func groupMulticastWorks(t *testing.T) bool {
	t.Helper()
	rx := newTestGroupTransport(t, groupTestPort)
	tx := newTestGroupTransport(t, groupTestPort)
	gid, err := rx.Join(groupAddr(0))
	if err != nil {
		t.Logf("join failed: %v", err)
		return false
	}
	if _, err := tx.Register(groupAddr(0)); err != nil {
		t.Logf("register failed: %v", err)
		return false
	}
	got := make(chan transport.GroupID, 1)
	go func() {
		var buf [4]transport.Envelope
		n, err := rx.RecvBatch(buf[:])
		if err != nil || n == 0 {
			got <- 0
			return
		}
		g := buf[0].Group
		for i := 0; i < n; i++ {
			transport.PutPacket(buf[i].Pkt)
		}
		got <- g
	}()
	p := &packet.Packet{Header: packet.Header{Type: packet.TypeKeepalive, Seq: 7}}
	for i := 0; i < 5; i++ {
		if err := tx.SendBatch([]transport.Envelope{{Pkt: p, Multicast: true, Group: gid}}); err != nil {
			t.Logf("send failed: %v", err)
			return false
		}
		select {
		case g := <-got:
			return g == gid
		case <-time.After(200 * time.Millisecond):
		}
	}
	return false
}

// recvTagged drains t until a packet tagged with want arrives (or the
// deadline passes), returning the envelope's source node ID.
func recvTagged(t *testing.T, gt *Endpoint, want transport.GroupID, deadline time.Duration) (packet.NodeID, bool) {
	t.Helper()
	type res struct {
		from packet.NodeID
		ok   bool
	}
	ch := make(chan res, 1)
	go func() {
		var buf [mmsgBatch]transport.Envelope
		for {
			n, err := gt.RecvBatch(buf[:])
			if err != nil {
				ch <- res{}
				return
			}
			for i := 0; i < n; i++ {
				g, from := buf[i].Group, buf[i].From
				transport.PutPacket(buf[i].Pkt)
				if g == want {
					ch <- res{from: from, ok: true}
					return
				}
			}
		}
	}()
	select {
	case r := <-ch:
		return r.from, r.ok
	case <-time.After(deadline):
		return 0, false
	}
}

func TestGroupTransportRejectsBadGroups(t *testing.T) {
	gt := newTestGroupTransport(t, groupTestPort)
	if _, err := gt.Join("127.0.0.1:39911"); err == nil {
		t.Error("unicast group address accepted")
	}
	if _, err := gt.Join(fmt.Sprintf("239.77.1.1:%d", groupTestPort+1)); err == nil {
		t.Error("group on a foreign data port accepted")
	}
	if _, err := gt.Register("not-an-address"); err == nil {
		t.Error("garbage group accepted")
	}
	if err := gt.Leave(transport.GroupID(12345)); err != nil {
		t.Errorf("leaving a never-seen group: %v", err)
	}
}

func TestGroupTransportJoinIdempotent(t *testing.T) {
	gt := newTestGroupTransport(t, groupTestPort)
	g1, err := gt.Join(groupAddr(1))
	if err != nil {
		t.Skipf("join: %v", err)
	}
	g2, err := gt.Join(groupAddr(1))
	if err != nil || g1 != g2 {
		t.Errorf("re-join: got (%v, %v), want (%v, nil)", g2, err, g1)
	}
	// Register of a joined group resolves to the same ID; bare-IP and
	// ip:port specs agree.
	g3, err := gt.Register(strings.TrimSuffix(groupAddr(1), fmt.Sprintf(":%d", groupTestPort)))
	if err != nil || g3 != g1 {
		t.Errorf("register joined group: got (%v, %v), want (%v, nil)", g3, err, g1)
	}
	st := gt.GroupStats()
	if st.Joined != 1 || st.Registered != 1 {
		t.Errorf("stats after idempotent joins: %+v", st)
	}
	if err := gt.Leave(g1); err != nil {
		t.Errorf("leave: %v", err)
	}
	if st := gt.GroupStats(); st.Joined != 0 || st.Registered != 1 {
		t.Errorf("stats after leave: %+v", st)
	}
}

// TestGroupTransportDemux is the tentpole behavior: one socket pair,
// several groups, arrivals tagged with the group they were addressed
// to, and unicast feedback flowing back over learned peer IDs.
func TestGroupTransportDemux(t *testing.T) {
	if !groupMulticastWorks(t) {
		t.Skip("loopback multicast not available in this environment")
	}
	rx := newTestGroupTransport(t, groupTestPort)
	tx := newTestGroupTransport(t, groupTestPort)

	const n = 4
	gids := make([]transport.GroupID, n)
	for i := 0; i < n; i++ {
		gid, err := rx.Join(groupAddr(10 + i))
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if _, err := tx.Register(groupAddr(10 + i)); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		gids[i] = gid
	}
	// Each group gets a distinctly-numbered packet; every arrival must
	// carry the group it was addressed to.
	var senderID packet.NodeID
	for i := n - 1; i >= 0; i-- {
		p := &packet.Packet{Header: packet.Header{Type: packet.TypeData, Seq: uint32(100 + i)}}
		if err := tx.SendBatch([]transport.Envelope{{Pkt: p, Multicast: true, Group: gids[i]}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		from, ok := recvTagged(t, rx, gids[i], 2*time.Second)
		if !ok {
			t.Fatalf("no arrival tagged for group %d (%v)", i, gids[i])
		}
		senderID = from
	}
	// Unicast feedback to the learned sender lands on tx's unicast
	// socket with Group 0.
	fb := &packet.Packet{Header: packet.Header{Type: packet.TypeNak, Seq: 555}}
	if err := rx.SendBatch([]transport.Envelope{{Pkt: fb, To: senderID}}); err != nil {
		t.Fatalf("feedback: %v", err)
	}
	if _, ok := recvTagged(t, tx, 0, 2*time.Second); !ok {
		t.Fatal("feedback did not arrive as a Group-0 unicast envelope")
	}
	// A group that was never joined or registered fails fast and counts.
	bad := &packet.Packet{Header: packet.Header{Type: packet.TypeData}}
	if err := tx.SendBatch([]transport.Envelope{{Pkt: bad, Multicast: true, Group: 1}}); err == nil {
		t.Error("send to unregistered group succeeded")
	}
	if st := tx.GroupStats(); st.SendErrors == 0 {
		t.Error("unregistered-group send not counted in SendErrors")
	}
}

// igmpMembershipBudget reports how many memberships one socket may
// hold, raising the sysctl toward want when the environment allows.
func igmpMembershipBudget(t *testing.T, want int) int {
	t.Helper()
	const path = "/proc/sys/net/ipv4/igmp_max_memberships"
	raw, err := os.ReadFile(path)
	if err != nil {
		return 20 // kernel default
	}
	cur, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		return 20
	}
	if cur >= want {
		return cur
	}
	if err := os.WriteFile(path, []byte(strconv.Itoa(want)), 0o644); err != nil {
		t.Logf("cannot raise igmp_max_memberships past %d (%v); capping the test", cur, err)
		return cur
	}
	t.Cleanup(func() { os.WriteFile(path, raw, 0o644) })
	return want
}

// TestGroupTransportThousandGroups is the scale acceptance: 1,000
// groups spread over 4 shard transports hold exactly 8 sockets, and a
// spot-check of groups across every shard still demuxes correctly.
func TestGroupTransportThousandGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if !groupMulticastWorks(t) {
		t.Skip("loopback multicast not available in this environment")
	}
	const shards = 4
	perShard := 250
	if budget := igmpMembershipBudget(t, perShard+8); budget < perShard {
		perShard = budget - 8 // probe/demux tests may hold a few
		if perShard < 4 {
			t.Skipf("igmp membership budget too small: %d", budget)
		}
	}
	total := shards * perShard

	fdsBefore := countFDs(t)
	goroutinesBefore := runtime.NumGoroutine()
	var rxs [shards]*Endpoint
	for s := range rxs {
		rxs[s] = newTestGroupTransport(t, groupTestPort)
	}
	gids := make([]transport.GroupID, total)
	for i := 0; i < total; i++ {
		gid, err := rxs[i%shards].Join(groupAddr(100 + i))
		if err != nil {
			t.Fatalf("join %d/%d: %v", i, total, err)
		}
		gids[i] = gid
	}
	// Poller budget: two read loops per shard, independent of group
	// count (+2 slack for runtime goroutines winding up).
	if grown := runtime.NumGoroutine() - goroutinesBefore; grown > 2*shards+2 {
		t.Errorf("goroutine growth for %d groups = %d, want <= %d (O(pollers), not O(groups))",
			total, grown, 2*shards+2)
	}
	// fd budget: 2 sockets per shard, independent of group count. Allow
	// +2 slack for runtime-internal descriptors created lazily.
	sockets := 0
	for _, rx := range rxs {
		sockets += rx.Sockets()
	}
	if sockets != 2*shards {
		t.Errorf("reported sockets = %d, want %d", sockets, 2*shards)
	}
	if got := countFDs(t) - fdsBefore; got > 2*shards+2 {
		t.Errorf("fd growth for %d groups = %d, want <= %d", total, got, 2*shards+2)
	}
	for s, rx := range rxs {
		if st := rx.GroupStats(); st.Joined != perShard {
			t.Errorf("shard %d joined = %d, want %d", s, st.Joined, perShard)
		}
	}

	// Spot-check demux: one sender addresses the first and last group
	// of every shard; each must arrive on its shard tagged correctly.
	tx := newTestGroupTransport(t, groupTestPort)
	for _, i := range []int{0, 1, 2, 3, total - 4, total - 3, total - 2, total - 1} {
		if _, err := tx.Register(groupAddr(100 + i)); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		p := &packet.Packet{Header: packet.Header{Type: packet.TypeData, Seq: uint32(i)}}
		if err := tx.SendBatch([]transport.Envelope{{Pkt: p, Multicast: true, Group: gids[i]}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, ok := recvTagged(t, rxs[i%shards], gids[i], 2*time.Second); !ok {
			t.Fatalf("group %d (%v) did not arrive on shard %d", i, gids[i], i%shards)
		}
	}
}

// countFDs returns the process's open file-descriptor count.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count fds: %v", err)
	}
	return len(ents)
}
