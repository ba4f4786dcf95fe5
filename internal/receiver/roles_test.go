package receiver

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/repair"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// The roles, each on its own: the outbox's routing table, the leaf's
// liveness state machine and the recovery cache, none of which needs a
// receive window or a packet exchange to be checked.

const (
	localPort  = 200
	remotePort = 100
)

// where drains all three views and reports which one p came out of, and
// its explicit destination if it had one.
func where(t *testing.T, r *Receiver, p *packet.Packet) (dest, packet.NodeID) {
	t.Helper()
	for _, q := range r.Outgoing() {
		if q == p {
			return toSender, 0
		}
	}
	for _, q := range r.OutgoingMulticast() {
		if q == p {
			return toGroup, 0
		}
	}
	for _, a := range r.OutgoingAddressed() {
		if a.Pkt == p {
			return toNode, a.To
		}
	}
	t.Fatalf("%v packet left through no view", p.Type)
	return 0, 0
}

func TestOutboxRouting(t *testing.T) {
	const member = packet.NodeID(7)
	ports := func(c *Config) { c.LocalPort, c.RemotePort = localPort, remotePort }
	roles := map[string]func() *Receiver{
		"flat": func() *Receiver { return newR(t, ports) },
		"leaf": func() *Receiver { return newLeaf(t, ports) },
		"failed-over leaf": func() *Receiver {
			r := newLeaf(t, ports)
			r.leaf.down = true
			return r
		},
		"head": func() *Receiver {
			return newR(t, func(c *Config) { ports(c); c.Head = &repair.Config{} })
		},
		"local recovery": func() *Receiver {
			return newR(t, func(c *Config) { ports(c); c.LocalRecovery = true })
		},
	}
	type route struct {
		d       dest
		to      packet.NodeID
		dstPort uint16
		wire    packet.Type // zero: unchanged
	}
	sender := route{d: toSender, dstPort: remotePort}
	head := route{d: toNode, to: testHead, dstPort: localPort}
	cases := []struct {
		role string
		ty   packet.Type
		d    dest // how the machine or role addressed it
		to   packet.NodeID
		want route
	}{
		{"flat", packet.TypeJoin, upstream, 0, sender},
		{"flat", packet.TypeUpdate, upstream, 0, sender},
		{"flat", packet.TypeLeave, upstream, 0, sender},
		{"flat", packet.TypeNak, upstream, 0, sender},
		{"flat", packet.TypeControl, upstream, 0, sender},

		{"leaf", packet.TypeJoin, upstream, 0, head},
		{"leaf", packet.TypeUpdate, upstream, 0, head},
		{"leaf", packet.TypeLeave, upstream, 0, head},
		{"leaf", packet.TypeNak, upstream, 0, route{toNode, testHead, localPort, packet.TypeHeadNak}},
		{"leaf", packet.TypeControl, upstream, 0, sender}, // rate control stays end-to-end
		{"leaf", packet.TypeNak, toSender, 0, sender},     // a range the head declined
		{"leaf", packet.TypeLeave, toSender, 0, sender},   // re-adoption retiring the direct membership

		{"failed-over leaf", packet.TypeJoin, upstream, 0, sender},
		{"failed-over leaf", packet.TypeUpdate, upstream, 0, sender},
		{"failed-over leaf", packet.TypeLeave, upstream, 0, sender},
		{"failed-over leaf", packet.TypeNak, upstream, 0, sender},
		{"failed-over leaf", packet.TypeControl, upstream, 0, sender},

		{"head", packet.TypeJoin, upstream, 0, sender},
		{"head", packet.TypeAggUpdate, upstream, 0, sender},
		{"head", packet.TypeLeave, upstream, 0, sender},
		{"head", packet.TypeNak, upstream, 0, sender}, // its own gaps and its escalations
		{"head", packet.TypeControl, upstream, 0, sender},
		{"head", packet.TypeData, toGroup, 0, route{d: toGroup, dstPort: localPort}}, // repair into the subtree
		{"head", packet.TypeHeadDecline, toGroup, 0, route{d: toGroup, dstPort: localPort}},
		{"head", packet.TypeJoinResponse, toNode, member, route{d: toNode, to: member, dstPort: localPort}},
		{"head", packet.TypeLeaveResponse, toNode, member, route{d: toNode, to: member, dstPort: localPort}},

		{"local recovery", packet.TypeJoin, upstream, 0, sender},
		{"local recovery", packet.TypeUpdate, upstream, 0, sender},
		{"local recovery", packet.TypeLeave, upstream, 0, sender},
		{"local recovery", packet.TypeControl, upstream, 0, sender},
		{"local recovery", packet.TypeNak, upstream, 0, route{d: toGroup, dstPort: remotePort}}, // so peers can repair and suppress
		{"local recovery", packet.TypeData, toGroup, 0, route{d: toGroup, dstPort: remotePort}}, // peer repair
	}
	for _, c := range cases {
		r := roles[c.role]()
		p := &packet.Packet{Header: packet.Header{Type: c.ty}}
		r.send(0, p, c.d, c.to)
		d, to := where(t, r, p)
		wire := c.want.wire
		if wire == 0 {
			wire = c.ty
		}
		if d != c.want.d || to != c.want.to || p.SrcPort != localPort || p.DstPort != c.want.dstPort || p.Type != wire {
			t.Errorf("%s %v: view %d to %d as %v ports %d->%d, want view %d to %d as %v ports %d->%d",
				c.role, c.ty, d, to, p.Type, p.SrcPort, p.DstPort,
				c.want.d, c.want.to, wire, localPort, c.want.dstPort)
		}
	}
}

// TestOutboxViewsKeepOrder: the three drains are views of one queue —
// each yields its own packets in emission order and leaves the others.
func TestOutboxViewsKeepOrder(t *testing.T) {
	r := newR(t, func(c *Config) { c.Head = &repair.Config{} })
	var sent []*packet.Packet
	for i, d := range []dest{toSender, toGroup, toNode, toSender, toGroup, toSender} {
		p := &packet.Packet{Header: packet.Header{Type: packet.TypeNak, Seq: uint32(i)}}
		r.send(0, p, d, 3)
		sent = append(sent, p)
	}
	if mc := r.OutgoingMulticast(); len(mc) != 2 || mc[0] != sent[1] || mc[1] != sent[4] {
		t.Errorf("multicast view = %v", mc)
	}
	if out := r.Outgoing(); len(out) != 3 || out[0] != sent[0] || out[1] != sent[3] || out[2] != sent[5] {
		t.Errorf("sender view = %v", out)
	}
	if ad := r.OutgoingAddressed(); len(ad) != 1 || ad[0].Pkt != sent[2] || ad[0].To != 3 {
		t.Errorf("addressed view = %v", ad)
	}
	if len(r.Outgoing())+len(r.OutgoingMulticast())+len(r.OutgoingAddressed()) != 0 {
		t.Error("a view yielded a packet twice")
	}
}

// The sender's node is adopted from the first sender-originated packet
// that comes from the sender's port — configured, or learned from that
// very packet — and from nothing else: not feedback, not DATA from
// another port, not a later packet. Node 0 is a real sender.
func TestSenderLearnedFromSenderPort(t *testing.T) {
	type arrival struct {
		from   packet.NodeID
		ty     packet.Type
		src    uint16
		sender packet.NodeID // what Sender reports after it, if known
		known  bool
	}
	for _, c := range []struct {
		name   string
		remote uint16
		seq    []arrival
	}{
		{"configured port", remotePort, []arrival{
			{5, packet.TypeNak, remotePort + 1, 0, false},
			{6, packet.TypeUpdate, remotePort, 0, false},
			{7, packet.TypeData, remotePort + 1, 0, false},
			{0, packet.TypeKeepalive, remotePort, 0, true},
			{9, packet.TypeData, remotePort, 0, true},
		}},
		{"learned port", 0, []arrival{
			{5, packet.TypeNak, remotePort + 1, 0, false},
			{3, packet.TypeProbe, remotePort, 3, true},
			{4, packet.TypeData, remotePort + 1, 3, true},
		}},
	} {
		r := newR(t, func(cfg *Config) { cfg.LocalPort, cfg.RemotePort = localPort, c.remote })
		for i, a := range c.seq {
			p := &packet.Packet{Header: packet.Header{Type: a.ty, SrcPort: a.src, DstPort: localPort, Seq: 1 << 20}}
			r.HandleFrom(sim.Second, a.from, p)
			if got, ok := r.Sender(); ok != a.known || got != a.sender {
				t.Errorf("%s, arrival %d (%v from node %d port %d): sender %d known=%v, want %d known=%v",
					c.name, i, a.ty, a.from, a.src, got, ok, a.sender, a.known)
			}
		}
		if r.out.remote != remotePort {
			t.Errorf("%s: remote port %d, want %d", c.name, r.out.remote, remotePort)
		}
	}
}

func TestLeafLivenessStateMachine(t *testing.T) {
	var none *leaf
	if none.attached() || none.takes(0, &packet.Packet{Header: packet.Header{Type: packet.TypeJoin}}) {
		t.Fatal("a receiver that is no leaf has a head")
	}
	pkt := func(ty packet.Type) *packet.Packet { return &packet.Packet{Header: packet.Header{Type: ty}} }
	l := &leaf{head: testHead, budget: 2, silence: 500 * sim.Millisecond}

	// An UPDATE goes to the head but expects no reply: no clock.
	if !l.takes(0, pkt(packet.TypeUpdate)) || l.waitSince != 0 {
		t.Fatalf("UPDATE: taken/clock = %v", l.waitSince)
	}
	if l.takes(0, pkt(packet.TypeControl)) {
		t.Fatal("CONTROL taken by the head: rate control is end-to-end")
	}
	// A JOIN at t=0 starts the clock one tick late rather than not at all,
	// and a later request does not restart it.
	if !l.takes(0, pkt(packet.TypeJoin)) || l.waitSince != 1 {
		t.Fatalf("JOIN at t=0: clock = %v, want 1", l.waitSince)
	}
	nak := pkt(packet.TypeNak)
	if !l.takes(300*sim.Millisecond, nak) || nak.Type != packet.TypeHeadNak || l.waitSince != 1 {
		t.Fatalf("NAK: type %v clock %v", nak.Type, l.waitSince)
	}
	if l.silent(400*sim.Millisecond, true) {
		t.Error("silent before the timeout")
	}
	if !l.silent(600*sim.Millisecond, true) {
		t.Error("not silent past the timeout with a request outstanding")
	}
	// Nothing outstanding any more: the request was answered indirectly.
	if l.silent(600*sim.Millisecond, false) || l.waitSince != 0 {
		t.Error("clock kept running with nothing outstanding")
	}
	if l.silent(10*sim.Second, true) {
		t.Error("silent with the clock stopped")
	}
	l.takes(sim.Second, pkt(packet.TypeLeave))
	if l.waitSince != sim.Second {
		t.Errorf("LEAVE: clock = %v", l.waitSince)
	}
	l.silence = -1
	if l.silent(100*sim.Second, true) {
		t.Error("silent with the timer disabled")
	}

	// Retry policy toward the head: exponential backoff, bounded budget.
	base := 4 * kernel.Jiffy
	for tries, want := range []sim.Time{base, base, 2 * base, 4 * base, 8 * base} {
		if got := l.backoff(base, tries); got != want {
			t.Errorf("backoff(%d) = %v, want %v", tries, got, want)
		}
	}
	if l.backoff(base, 40) != base<<6 {
		t.Error("backoff not capped")
	}
	if l.spent(2) || !l.spent(3) {
		t.Error("budget 2: spent(2), spent(3) =", l.spent(2), l.spent(3))
	}
	l.budget = -1
	if l.spent(1000) {
		t.Error("a disabled budget was spent")
	}

	// A head given up on takes nothing.
	l.down = true
	if l.attached() || l.takes(0, pkt(packet.TypeJoin)) {
		t.Error("a dead head still takes feedback")
	}
}

// TestRecoveryCacheOwnership: a pooled cache holds exactly one pool
// reference per entry through replace, prune and release; an aliasing
// cache never touches the pool.
func TestRecoveryCacheOwnership(t *testing.T) {
	fill := func(c *pktCache, seqs ...seqspace.Seq) {
		for _, s := range seqs {
			p := packet.GetBuf(8)
			p.Header = packet.Header{Type: packet.TypeData, Seq: uint32(s)}
			c.put(p)
			packet.Put(p) // the caller's reference; the cache keeps its own
		}
	}
	before := packet.PoolStats()
	c := pktCache{m: make(map[seqspace.Seq]*packet.Packet), pooled: true}
	fill(&c, 1, 2, 3, 4, 5, 6, 7, 8)
	fill(&c, 3) // replaced: the old copy's reference goes back
	if len(c.m) != 8 {
		t.Fatalf("cache holds %d, want 8", len(c.m))
	}
	c.prune(9, 4) // keeps 5..8
	if _, ok := c.m[4]; ok || len(c.m) != 4 {
		t.Errorf("prune(9, 4) left %d entries (4 held: %v)", len(c.m), ok)
	}
	c.release()
	fill(&c, 20) // the map stays usable after a release
	c.release()
	after := packet.PoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts || len(c.m) != 0 {
		t.Errorf("pooled cache: %d gets, %d puts, %d left", gets, puts, len(c.m))
	}

	before = packet.PoolStats()
	alias := pktCache{m: make(map[seqspace.Seq]*packet.Packet)}
	p := data(1, "x")
	alias.put(p)
	alias.put(data(1, "y"))
	alias.prune(10, 0)
	alias.release()
	if after := packet.PoolStats(); after.Puts != before.Puts {
		t.Error("an aliasing cache returned packets it does not own to the pool")
	}

	var off pktCache // a receiver with neither FEC nor local recovery
	off.put(p)
	off.release()
	if len(off.m) != 0 {
		t.Error("a switched-off cache stored a packet")
	}

	// The recovery role bounds the cache to a few groups behind the
	// reassembly frontier.
	rec := newRecovery(Config{FECGroupSize: 4})
	for s := seqspace.Seq(0); s < 200; s++ {
		rec.keep(data(s, "z"), s+1)
	}
	if n := len(rec.cache.m); n > 2*rec.limit+1 {
		t.Errorf("cache grew to %d entries, bound is %d", n, 2*rec.limit+1)
	}
	if _, ok := rec.cache.m[199]; !ok {
		t.Error("the newest packet was pruned")
	}
}
