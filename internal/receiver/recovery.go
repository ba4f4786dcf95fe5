package receiver

import (
	"repro/internal/fec"
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/window"
)

// pktCache keeps packets by sequence number past their life in the
// receive window. When pooled it holds its own pool reference per entry
// (Retain on insert, Put on removal), which is what lets receive-window
// recycling stay on; otherwise entries are plain aliases and nothing
// recycles them. A nil map is a cache that is switched off.
type pktCache struct {
	m      map[seqspace.Seq]*packet.Packet
	pooled bool
}

// put stores p, replacing any packet held for the same number.
func (c *pktCache) put(p *packet.Packet) {
	if c.m == nil {
		return
	}
	seq := seqspace.Seq(p.Seq)
	c.drop(seq)
	if c.pooled {
		packet.Retain(p)
	}
	c.m[seq] = p
}

func (c *pktCache) drop(seq seqspace.Seq) {
	if p, ok := c.m[seq]; ok {
		if c.pooled {
			packet.Put(p)
		}
		delete(c.m, seq)
	}
}

// prune drops every entry more than keep packets behind next.
func (c *pktCache) prune(next seqspace.Seq, keep int) {
	for seq := range c.m {
		if int(seqspace.Diff(next, seq)) > keep {
			c.drop(seq)
		}
	}
}

// release empties the cache. The map stays usable.
func (c *pktCache) release() {
	for seq := range c.m {
		c.drop(seq)
	}
}

// recovery is what a receiver does about a loss besides asking the
// sender: rebuild it from FEC parity (Config.FECGroupSize), or — local
// recovery, Config.LocalRecovery — let a peer repair it and repair for
// peers in turn, SRM-style. Both need recently received packets kept
// past delivery, which is the cache they share.
type recovery struct {
	// cache retains recently received packets so parity can repair a
	// loss even after earlier group members were consumed by the
	// application, and so a peer's request can be served; bounded to a
	// few FEC groups (the kernel analogue is holding a handful of
	// sk_buffs past delivery).
	cache pktCache
	limit int         // how far behind the reassembly frontier the cache reaches
	fdec  fec.Decoder // reuses one XOR scratch buffer across recoveries

	// Local recovery: peers is the switch, repairs the multicast repairs
	// this receiver has scheduled (cancelled if someone else repairs
	// first), rng their randomized delay.
	peers   bool
	repairs map[seqspace.Seq]sim.Time
	timer   kernel.Timer
	rng     *sim.RNG
}

func newRecovery(cfg Config) recovery {
	rec := recovery{limit: 4 * cfg.FECGroupSize, peers: cfg.LocalRecovery}
	if cfg.FECGroupSize > 0 || cfg.LocalRecovery {
		rec.cache = pktCache{m: make(map[seqspace.Seq]*packet.Packet), pooled: cfg.RecyclePackets}
	}
	if cfg.LocalRecovery {
		rec.rng = sim.NewRNG(uint64(cfg.LocalAddr) + 0x10CA1)
		rec.repairs = make(map[seqspace.Seq]sim.Time)
	}
	return rec
}

// keep caches an accepted packet and bounds the cache behind next.
func (rec *recovery) keep(p *packet.Packet, next seqspace.Seq) {
	rec.cache.put(p)
	if len(rec.cache.m) > 2*rec.limit {
		rec.cache.prune(next, rec.limit)
	}
}

// held resolves a packet for recovery from the window first, then the
// cache.
func (r *Receiver) held(seq seqspace.Seq) (*packet.Packet, bool) {
	if p, ok := r.wnd.PacketAt(seq); ok {
		return p, true
	}
	p, ok := r.rec.cache.m[seq]
	return p, ok
}

// fecLookup is held in the shape the FEC decoder wants: payload and the
// header flags parity also covers.
func (r *Receiver) fecLookup(seq seqspace.Seq) ([]byte, uint8, bool) {
	if p, ok := r.held(seq); ok {
		return p.Payload, p.Flags, true
	}
	return nil, 0, false
}

// sendRepair multicasts a copy of src — a head into its subtree, a peer
// to the group. The FIN flag must survive the repair: a receiver whose
// lost packet was the stream end can only finish if the rebuilt copy
// still ends the stream.
func (r *Receiver) sendRepair(now sim.Time, src *packet.Packet) {
	r.send(now, &packet.Packet{
		Header: packet.Header{
			Type:    packet.TypeData,
			Seq:     src.Seq,
			Length:  uint32(len(src.Payload)),
			RateAdv: r.advRate,
			Tries:   1, // a repair is by definition a retransmission
			Flags:   src.Flags & packet.FlagFIN,
		},
		Payload: append([]byte(nil), src.Payload...),
	}, toGroup, 0)
}

// onPeerNak processes another receiver's multicast NAK: requests
// covering our own pending gaps suppress our NAKs (SRM-style), and
// requests for data we hold schedule a randomized multicast repair.
func (r *Receiver) onPeerNak(now sim.Time, p *packet.Packet) {
	r.st.PeerNaksHeard++
	rec := &r.rec
	g := window.GapOf(p)
	for seq := g.From; seqspace.Before(seq, g.To); seq++ {
		if e, ok := r.pending[seq]; ok {
			// A peer already asked: count it as our own ask.
			e.lastSent = now
			if e.tries == 0 {
				e.tries = 1
			}
			continue
		}
		if _, scheduled := rec.repairs[seq]; scheduled {
			continue
		}
		if _, have := r.held(seq); have {
			rec.repairs[seq] = now + kernel.Jiffy + sim.Time(rec.rng.Intn(int(2*kernel.Jiffy)))
		}
	}
	r.nakScan(now, onChange)
	r.armRepairs(now)
}

func (r *Receiver) armRepairs(now sim.Time) {
	next := never
	for _, at := range r.rec.repairs {
		next = min(next, at)
	}
	armEarliest(&r.rec.timer, next, now)
}

// fireRepairs multicasts the repairs that are due.
func (r *Receiver) fireRepairs(now sim.Time) {
	for seq, at := range r.rec.repairs {
		if at > now {
			continue
		}
		delete(r.rec.repairs, seq)
		if src, ok := r.held(seq); ok {
			r.st.RepairsSent++
			r.sendRepair(now, src)
		}
	}
	r.armRepairs(now)
}

// onFec attempts single-erasure recovery from an FEC parity packet:
// when exactly one packet of the covered group is missing and the rest
// are still held, the loss is repaired locally with no NAK round trip.
// Recovery copies out of the parity payload, so the parity packet itself
// is never retained.
func (r *Receiver) onFec(now sim.Time, p *packet.Packet) {
	r.st.FecParityHeard++
	rebuilt, ok := r.rec.fdec.Recover(p, r.fecLookup)
	if !ok {
		// Nothing to rebuild: the group is complete (the common case —
		// parity spent on a loss that never happened), more than one
		// member is gone, or the parity is unusable.
		r.st.FecParityWasted++
		// A failed reconstruction is still information: the group's
		// parity has arrived and could not repair its gaps, so local
		// repair is off the table for every deferred entry it covers.
		// Expire their defers now — keeping them waiting only adds the
		// full defer window to the retransmission round trip. The
		// stamp stays nonzero so the fallback counter still sees them.
		expedited := false
		for i := 0; i < int(p.Length) && i < fec.MaxGroup; i++ {
			if e, ok := r.pending[seqspace.Seq(p.Seq)+seqspace.Seq(i)]; ok && e.deferUntil > now {
				e.deferUntil = now
				expedited = true
			}
		}
		if expedited {
			r.nakScan(now, onTimer)
		}
		return
	}
	// Only rebuild data that is actually missing and fits the window.
	if seqspace.Before(seqspace.Seq(rebuilt.Seq), r.wnd.Next()) {
		r.st.FecParityWasted++
		packet.Put(rebuilt)
		return
	}
	r.st.FecRecovered++
	trace.Emit(r.cfg.Trace, now, trace.FecRecovered, rebuilt.Seq, int64(len(rebuilt.Payload)))
	rebuilt.RateAdv = r.advRate
	if !r.onData(now, rebuilt) {
		// The window refused it (raced a retransmission into Duplicate,
		// or out of window): drop our pool reference, exactly as the
		// session drops unretained receive packets.
		packet.Put(rebuilt)
	}
}
