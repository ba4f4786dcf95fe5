package sender

import (
	"repro/internal/packet"
	"repro/internal/rate"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the protocol variant.
type Mode int

const (
	// HRMC guarantees reliability: the window advances only when every
	// member is known to hold the data, probing members whose state is
	// unknown.
	HRMC Mode = iota
	// RMC is the original protocol: anonymous membership, release purely
	// on the MINBUF timer; a NAK for released data earns a NAK_ERR.
	RMC
)

func (m Mode) String() string {
	if m == RMC {
		return "RMC"
	}
	return "H-RMC"
}

// Fixed timings: the paper's keepalive cap, and this implementation's
// bound on the departed-member map.
const (
	// keepaliveMax caps the exponential KEEPALIVE backoff at the paper's
	// 2 seconds.
	keepaliveMax = 2 * sim.Second
	// tombstoneTTL bounds how long the final state of a departed member
	// is remembered for the stale-NAK guard. Under sustained join/leave
	// churn the departed map would otherwise grow without bound; a
	// straggler NAK older than this is vanishingly unlikely and merely
	// earns a harmless NAK_ERR.
	tombstoneTTL = 30 * sim.Second
)

// Silent-head failover defaults (see Config.HeadSilenceTimeout and
// Config.FailoverGrace). The eviction timeout is several AGG_UPDATE
// periods plus margin; the grace covers a leaf-side failover detection
// plus a JOIN round trip.
const (
	defaultHeadSilenceTimeout = 10 * sim.Second
	defaultFailoverGrace      = 5 * sim.Second
)

// Config parametrizes a sender.
type Config struct {
	LocalPort, RemotePort uint16
	// SndBuf is the per-socket kernel send buffer in bytes; it bounds
	// the send window.
	SndBuf int
	// MSS is the data payload size per packet.
	MSS int
	// Mode selects H-RMC or the RMC baseline.
	Mode Mode
	// InitialSeq is the stream's first sequence number.
	InitialSeq seqspace.Seq
	// MinBufRTTs is the minimum time a transmitted packet stays buffered
	// before it becomes a release candidate, in round trips; the paper
	// sets MINBUF = 10, the default. For an unknown population (and under
	// RMC) the hold is the release rule's grace for late joiners. With
	// ExpectedReceivers set it never delays a release, since a packet
	// every member holds is freed early; it only delays the PROBE for a
	// packet some member has not confirmed. A live session therefore sets
	// 1 there when this is left zero.
	MinBufRTTs int
	// Rate configures the rate-based flow-control component; its Quantum
	// is the finest interval the machine can be woken at.
	Rate rate.Config
	// InitialRTT seeds the worst-receiver round-trip estimator.
	InitialRTT sim.Time
	// ExpectedReceivers, when positive, holds buffer release (not
	// transmission) until that many receivers have joined, protecting
	// the start of stream in deployments where the population is known.
	ExpectedReceivers int

	// EarlyProbeRTTs is the early-probe extension (Section 7, item 1):
	// when positive, probe lagging receivers this many round trips
	// before the release deadline instead of at it, hiding the probe
	// round trip behind the tail of the MINBUF wait.
	EarlyProbeRTTs float64
	// MulticastProbeThreshold is the multicast-probe extension (Section
	// 7, item 2): when positive and at least this many receivers need
	// probing, send one multicast PROBE instead of unicasts.
	MulticastProbeThreshold int
	// LocalRecovery enables the local-recovery extension (Section 7,
	// item 3): NAK-triggered retransmissions are deferred half a round
	// trip so a peer's multicast repair can serve the group first, and
	// repairs the sender observes cancel the matching retransmissions.
	LocalRecovery bool
	// FECGroupSize enables the forward-error-correction extension
	// (Section 7, item 4): one best-effort XOR parity packet is
	// multicast per this many first-transmission data packets, letting
	// receivers rebuild single losses without a NAK round trip. Zero
	// disables FEC.
	FECGroupSize int
	// HeadSilenceTimeout evicts a repair head that has gone completely
	// silent — no AGG_UPDATE, escalated NAK, or any other feedback — for
	// this long. A healthy head speaks at least every aggregate period, so
	// sustained silence means the head process died without a LEAVE and
	// its entry would otherwise stall the release path forever. Zero
	// means 10 seconds; negative disables the sweep.
	HeadSilenceTimeout sim.Time
	// FailoverGrace holds buffer release at an evicted head's last
	// reported subtree minimum for this long after the eviction, giving
	// the head's orphaned leaves time to detect the death themselves,
	// re-JOIN directly, and report their true positions — without the
	// fence the release path would treat the shrunken membership table as
	// complete and free data the orphans still need. Zero means 5
	// seconds; negative disables the fence.
	FailoverGrace sim.Time

	// Trace receives protocol events; nil disables tracing.
	Trace trace.Sink
}

func (c *Config) sanitize() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.SndBuf <= 0 {
		c.SndBuf = 64 << 10
	}
	if c.MinBufRTTs <= 0 {
		c.MinBufRTTs = 10
	}
	if c.Rate.MSS == 0 {
		c.Rate.MSS = c.MSS + packet.HeaderSize // pace in wire bytes
	}
	if c.Rate.MinRate == 0 && c.Rate.MaxRate == 0 {
		def := rate.DefaultConfig()
		def.MSS, def.Quantum = c.MSS, c.Rate.Quantum
		c.Rate = def
	}
	c.HeadSilenceTimeout = orOff(c.HeadSilenceTimeout, defaultHeadSilenceTimeout)
	c.FailoverGrace = orOff(c.FailoverGrace, defaultFailoverGrace)
}

// orOff reads a duration option where zero means def and a negative value
// switches the feature off (0).
func orOff(d, def sim.Time) sim.Time {
	if d == 0 {
		return def
	}
	return max(d, 0)
}

// Dest is where an outgoing packet goes.
type Dest struct {
	// Multicast packets go to the whole group; otherwise Node is the
	// receiver's unicast address.
	Multicast bool
	Node      packet.NodeID
}

// Out is one outgoing packet with its destination.
type Out struct {
	Pkt  *packet.Packet
	Dest Dest
	// Windowed marks a packet still owned by the send window (a DATA
	// transmission or retransmission emitted without cloning). The
	// driver must not hold Pkt or its payload past the point where it
	// hands control back to the machine, unless it covers the overlap
	// with packet.Retain: the window releases (packet.Put) the buffer
	// as soon as feedback allows.
	Windowed bool
}
