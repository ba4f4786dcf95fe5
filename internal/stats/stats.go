// Package stats defines the counters the performance evaluation reads:
// feedback activity (NAKs, rate requests, updates, probes), traffic
// volumes, and the Figure 3 release-information metric.
package stats

// Sender aggregates sender-side protocol counters. All fields count
// events since the connection started. The zero value is ready to use.
type Sender struct {
	PacketsSent     int64 // first transmissions of DATA packets
	BytesSent       int64 // payload bytes in first transmissions
	Retransmissions int64 // DATA packets retransmitted
	RetransBytes    int64

	NaksReceived         int64
	NakErrsSent          int64 // retransmission requests that could not be met
	RateRequestsReceived int64 // warning CONTROL packets
	UrgentReceived       int64 // URG CONTROL packets
	UpdatesReceived      int64
	JoinsReceived        int64
	LeavesReceived       int64

	ProbesSent          int64 // unicast PROBE packets
	MulticastProbesSent int64 // multicast PROBE packets (extension)
	FecParitySent       int64 // FEC parity packets (extension)
	FecGroupRestarts    int64 // parity groups abandoned on a discontinuous transmit (extension)
	RepairsHeard        int64 // peer repairs observed (local recovery)
	RetransCancelled    int64 // retransmissions cancelled by peer repairs
	KeepalivesSent      int64

	// RateBps and CeilingBps are flow-control gauges brought up to date
	// when an observer asks (Sender.RefreshGauges): the current
	// configured transmission rate and the rate-control ceiling (the
	// session governor's share under a budget), both in bytes/second. In
	// Aggregate they sum across flows, giving the aggregate offered rate
	// and aggregate ceiling.
	RateBps    int64
	CeilingBps int64
	// RTTMicros is a gauge refreshed with them: the smoothed round-trip
	// estimate in microseconds, the configured initial value before the
	// first sample. Aggregate keeps the largest.
	RTTMicros int64

	// Figure 3 metric: of the Releases buffer-release decisions, how
	// many happened while the sender had complete information from all
	// receivers (every member known past the released sequence number).
	Releases             int64
	ReleasesCompleteInfo int64
	// ReleaseStalls counts stall episodes: the times the H-RMC sender
	// wanted to advance the window and found it could not, because
	// receiver information was lacking. An episode lasts until a release
	// attempt is not blocked; how often the driver looks at one in
	// between does not count.
	ReleaseStalls int64
	// ReleaseBlockedMicros is the time, in microseconds, the window spent
	// waiting on receivers: no room for another packet, every buffered
	// packet transmitted, and the front not releasable. Time the
	// application leaves the window empty, or the rate leaves packets
	// unsent, is not in it.
	ReleaseBlockedMicros int64
	// Wakeups counts the times the session driver ran the machine because
	// a deadline it had published came due (not the runs that ride on a
	// Write, a Close or arriving feedback). An idle flow's stays still.
	Wakeups int64

	// Hierarchical repair tier (extension). AggUpdatesReceived counts
	// AGG_UPDATE packets from repair heads; RepairHeads and
	// DownstreamMembers are gauges refreshed with RateBps:
	// how many membership-table entries are repair heads, and how many
	// downstream receivers those heads report in aggregate.
	AggUpdatesReceived int64
	RepairHeads        int64
	DownstreamMembers  int64

	// Repair-head failover (extension). HeadsEvicted counts repair heads
	// evicted for AGG_UPDATE silence; OrphanedLeaves is a gauge of
	// downstream receivers last reported by since-evicted heads that have
	// not yet re-homed — it rises by the evicted head's reported member
	// count and falls as former leaves JOIN directly or a restarted head
	// re-reports its subtree.
	HeadsEvicted   int64
	OrphanedLeaves int64
}

// ReleaseInfoRatio returns the Figure 3 percentage: the fraction of
// buffer releases for which the sender had complete receiver
// information. It reports 1 when no release has happened yet.
func (s *Sender) ReleaseInfoRatio() float64 {
	if s.Releases == 0 {
		return 1
	}
	return float64(s.ReleasesCompleteInfo) / float64(s.Releases)
}

// Receiver aggregates receiver-side protocol counters.
type Receiver struct {
	DataReceived    int64 // DATA packets accepted (in or out of order)
	Duplicates      int64
	OutOfWindow     int64 // DATA packets dropped: beyond the receive window
	BytesDelivered  int64 // payload bytes handed to the application
	ChecksumErrors  int64
	NaksSent        int64 // first NAK for a gap
	NakRetries      int64 // NAK resends by the NAK manager
	UpdatesSent     int64
	UpdatesSkipped  int64 // update timer fired but other reverse traffic sufficed
	ProbesReceived  int64
	RateRequests    int64 // warning CONTROL packets sent
	UrgentRequests  int64 // URG CONTROL packets sent
	KeepalivesHeard int64
	FecParityHeard  int64 // FEC parity packets received (extension)
	FecRecovered    int64 // data packets rebuilt from parity (extension)
	FecParityWasted int64 // parity packets that repaired nothing (extension)
	FecFallbackNaks int64 // gaps NAKed after the FEC defer expired unrepaired (extension)
	PeerNaksHeard   int64 // multicast NAKs from other receivers (local recovery)
	RepairsSent     int64 // multicast repairs served to peers (local recovery)
	// MaxFillPermille tracks the highest receive-window fill observed,
	// in thousandths — a diagnostic for flow-control studies.
	MaxFillPermille int64
	// RTTMicros is a gauge: the round-trip estimate the flow-control
	// rules run on, in microseconds. Aggregate keeps the largest.
	RTTMicros int64

	// Hierarchical repair tier (extension). RepairHead is 1 when this
	// receiver serves as a repair head, 0 otherwise; RepairMembers is a
	// gauge of its current downstream membership. The remaining fields
	// count head activity: HEAD_NAKs received from downstream members,
	// those suppressed as duplicates within the suppression interval,
	// those answered from the head's retained window, those escalated
	// to the sender, downstream members evicted by timeout, and
	// aggregated UPDATEs emitted to the sender.
	RepairHead           int64
	RepairMembers        int64
	HeadNaksReceived     int64
	HeadNaksSuppressed   int64
	HeadNaksAnswered     int64
	HeadNaksEscalated    int64
	RepairMembersEvicted int64
	AggUpdatesSent       int64

	// Repair-head failover (extension). HeadFailovers counts the times
	// this leaf declared its repair head dead and degraded to flat mode;
	// HeadReadoptions the times it re-attached to a reappeared head.
	// HeadDeclinesSent counts explicit HEAD_DECLINEs this head multicast
	// for un-servable ranges; HeadDeclinesHeard counts declines this leaf
	// received and converted to direct end-to-end recovery.
	// HeadDrainTimeouts counts departures forced after the deferred-LEAVE
	// drain bound expired. NakErrsHeard counts authoritative sender
	// refusals received; UnrecoverableHoles counts sequence numbers the
	// receiver gave up re-requesting after such a refusal.
	HeadFailovers      int64
	HeadReadoptions    int64
	HeadDeclinesSent   int64
	HeadDeclinesHeard  int64
	HeadDrainTimeouts  int64
	NakErrsHeard       int64
	UnrecoverableHoles int64

	// Wakeups counts the times the session driver ran the machine because
	// one of its timers came due.
	Wakeups int64
}
