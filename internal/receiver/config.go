package receiver

import (
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/repair"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the protocol variant.
type Mode int

const (
	// HRMC is the full hybrid protocol: periodic updates and probe
	// responses.
	HRMC Mode = iota
	// RMC is the original pure NAK-based protocol: no updates, probes
	// are ignored.
	RMC
)

// Config parametrizes a receiver.
type Config struct {
	// LocalAddr identifies this receiver; the sender keeps it as the
	// member's unicast address.
	LocalAddr packet.NodeID
	// LocalPort and RemotePort fill the port fields of feedback packets.
	LocalPort, RemotePort uint16
	// RcvBuf is the per-socket kernel receive buffer in bytes; the
	// receive window holds RcvBuf/(MSS+header) packets.
	RcvBuf int
	// MSS is the data payload size per packet.
	MSS int
	// Mode selects H-RMC or the RMC baseline.
	Mode Mode
	// InitialSeq is the first sequence number of the stream, agreed at
	// session setup (the simulator and the live transport both configure
	// it on all parties).
	InitialSeq seqspace.Seq

	// InitialUpdatePeriod is the Update Generator's starting period; the
	// paper uses 50 jiffies (0.5 s).
	InitialUpdatePeriod sim.Time
	// AssumedRTT seeds the round-trip estimate used by the WARNBUF rule
	// and urgent-request throttling until the JOIN exchange measures one.
	AssumedRTT sim.Time
	// Quantum is the finest interval the driver can wake the machine at.
	// Zero means kernel.Jiffy, the clock of the paper's kernel and of the
	// simulator. What exists because of timer resolution follows it — the
	// floor under the round-trip estimate (two quanta: a clock cannot
	// resolve round trips shorter than its own tick) and the spacing of
	// rate requests (one) — the protocol's periods do not.
	Quantum sim.Time

	// LocalRecovery enables the local-recovery extension (Section 7,
	// item 3): NAKs are multicast to the whole group with SRM-style
	// suppression, and receivers holding the requested data answer with
	// multicast repairs after a randomized delay, offloading
	// retransmission work from the sender.
	LocalRecovery bool

	// FECGroupSize mirrors the sender's FEC extension setting. When
	// positive, the first NAK for a fresh gap is deferred long enough
	// for the group's parity packet to arrive and repair single losses
	// locally, so FEC actually removes NAK round trips instead of merely
	// racing them.
	FECGroupSize int

	// RecyclePackets makes the receiver return retained data packets to
	// the shared pool (packet.Put) once the application consumes them —
	// the zero-copy hold-until-release path. Enable only when every
	// packet fed to HandleFrom is pool-owned (the
	// session's batched receive loop guarantees this). The FEC/local-
	// recovery group cache holds its own pool references, so recycling
	// stays on under FEC.
	RecyclePackets bool

	// Head makes this receiver a repair head (hierarchical recovery
	// extension): it tracks downstream members, answers their HEAD_NAKs
	// from a retained window, and reports one aggregated UPDATE to the
	// sender instead of per-member feedback. Head mode implies HRMC and
	// disables local recovery (the repair tier subsumes it).
	Head *repair.Config
	// RepairHead, when nonzero, makes this receiver a downstream member
	// (leaf) of the given repair head: JOIN/UPDATE/LEAVE feedback and
	// retransmission requests (as HEAD_NAK) are addressed to the head
	// instead of the sender. Flow-control CONTROL packets still go to
	// the sender — rate control stays end-to-end. Ignored when Head is
	// set (a head reports straight to the sender).
	RepairHead packet.NodeID
	// HeadNakRetryBudget (leaf mode) is how many NAK retries one missing
	// packet may burn, unanswered by any head traffic, before the leaf
	// declares the head dead and fails over to flat mode. Zero means
	// 6; negative disables the budget.
	HeadNakRetryBudget int
	// HeadSilenceTimeout (leaf mode) declares the head dead when a
	// response-expecting request (JOIN, HEAD_NAK, LEAVE) has been
	// outstanding this long with no traffic from the head at all. Zero
	// means 2 seconds; negative disables the timer.
	HeadSilenceTimeout sim.Time
	// ReadoptHead re-attaches a failed-over leaf to its configured head
	// when the head's traffic reappears (a restarted head).
	ReadoptHead bool
	// JoinInProgress admits this receiver to a stream already flowing:
	// instead of NAKing the whole history back to InitialSeq, the
	// receive window is rebased to the first position the receiver can
	// anchor to (the first data packet seen, or one past a
	// PROBE/KEEPALIVE sequence number) and delivery starts there. Used
	// by restarted repair heads and late (flash-crowd) joiners.
	JoinInProgress bool

	// Trace receives protocol events; nil disables tracing.
	Trace trace.Sink
}

func (c *Config) sanitize() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.RcvBuf <= 0 {
		c.RcvBuf = 64 << 10
	}
	if c.InitialUpdatePeriod <= 0 {
		c.InitialUpdatePeriod = 50 * kernel.Jiffy
	}
	if c.Quantum <= 0 || c.Quantum > kernel.Jiffy {
		c.Quantum = kernel.Jiffy
	}
	if c.Head != nil {
		// The repair tier subsumes peer-based local recovery, and a head
		// reports straight to the sender.
		c.LocalRecovery = false
		c.RepairHead = 0
	}
	if c.RepairHead != 0 {
		c.LocalRecovery = false
	}
	if c.HeadNakRetryBudget == 0 {
		c.HeadNakRetryBudget = defaultHeadNakRetryBudget
	}
	if c.HeadSilenceTimeout == 0 {
		c.HeadSilenceTimeout = defaultHeadSilenceTimeout
	}
}

// Leaf-failover defaults for Config fields left zero. The silence
// timeout must stay well below the sender's own head-eviction timeout
// so stranded leaves re-home (and re-gate releases) before the sender
// forgets their evicted head.
const (
	defaultHeadNakRetryBudget = 6
	defaultHeadSilenceTimeout = 2 * sim.Second
)

// The paper's fixed timings of the Fig 9 machine.
const (
	// minUpdatePeriod and maxUpdatePeriod bound the Update Generator's
	// one-jiffy steps: at most one UPDATE a jiffy, at least one every
	// 5 seconds.
	minUpdatePeriod = kernel.Jiffy
	maxUpdatePeriod = 500 * kernel.Jiffy
	// nakRetryInterval is the NAK Manager's base resend interval for
	// pending NAKs (the local NAK-suppression window); retries back off
	// linearly with the try count.
	nakRetryInterval = 4 * kernel.Jiffy
	// warnBuf is how many round trips of sending the WARNBUF rule looks
	// ahead.
	warnBuf = 4
)
