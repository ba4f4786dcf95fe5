// Group-addressed transport: one endpoint, many multicast groups.
//
// An endpoint per group caps how many groups a process can serve: fds
// and receive loops grow O(groups). A GroupTransport amortizes the
// endpoint instead — a single socket (pair) joins N groups, arriving
// traffic is demultiplexed on the destination group address, and
// outgoing multicast is addressed per envelope via Envelope.Group.
// internal/session hosts many flows on one shared GroupTransport, so a
// daemon's fd and goroutine counts are O(shards), not O(groups).
//
// GroupIDs are transport-scoped opaque handles. The udpmcast endpoint
// uses the IPv4 group address (a uint32) so the kernel's IP_PKTINFO
// destination maps straight to the ID; the hub assigns dense IDs per
// group name. ID 0 is reserved: it marks "no group" — a unicast
// arrival — or the default group of an endpoint opened for one group.
package transport

// GroupID identifies one multicast group within a GroupTransport. Zero
// means no group (a unicast arrival) or the endpoint's default group.
type GroupID uint32

// GroupStats is a point-in-time snapshot of one group transport's
// datapath counters; the control plane renders one set per shard on
// /metrics.
type GroupStats struct {
	// Joined is the number of groups with live memberships.
	Joined int
	// Registered is the number of resolved groups (joined or send-only).
	Registered int
	// PktsIn counts decoded datagrams delivered toward the inbox.
	PktsIn int64
	// PktsOut counts datagrams handed to the socket.
	PktsOut int64
	// InboxDrops counts packets dropped on inbox overflow.
	InboxDrops int64
	// TruncatedDrops counts datagrams dropped for exceeding the batch
	// receive buffer.
	TruncatedDrops int64
	// SendErrors counts per-destination send failures, including ones
	// masked by SendBatch's first-error-only return.
	SendErrors int64
}

// GroupReporter is optionally implemented by group transports that can
// snapshot per-shard datapath counters.
type GroupReporter interface {
	GroupStats() GroupStats
}

// GroupTransport is a Transport hosting many multicast groups on
// one endpoint. Outgoing multicast envelopes select their group with
// Envelope.Group; arriving multicast is tagged with the group it was
// addressed to (unicast arrivals carry Group 0). Implementations must
// be safe for concurrent use.
type GroupTransport interface {
	Transport
	// Join makes the endpoint a member of the named group — its traffic
	// is received from now on — and returns the group's ID for envelope
	// addressing. Joining an already-joined group is idempotent and
	// returns the same ID.
	Join(group string) (GroupID, error)
	// Register resolves the named group for sending without becoming a
	// member: send-only flows address the group but do not receive its
	// traffic (no IGMP join, no cross-sender chatter).
	Register(group string) (GroupID, error)
	// Leave drops membership of gid. Leaving a group that was only
	// registered, or never seen, is a no-op.
	Leave(gid GroupID) error
}
