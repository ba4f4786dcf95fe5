// ShardedDialer: flow admission over a small fixed set of shared
// group transports. Where the classic dialer opens one socket (pair)
// per admitted flow, a sharded daemon opens its shards up front — each
// a transport.GroupTransport hosting many multicast groups on one
// socket pair — and every admission just joins (receivers) or
// registers (senders) its group on the shard the group name hashes to.
// The daemon's fd and poller counts are O(shards) no matter how many
// groups it serves.
package control

import (
	"errors"
	"hash/fnv"

	"repro/internal/transport"
)

// ShardedDialer admits flows onto a fixed set of shared group
// transports, choosing the shard by FNV-1a hash of the group name so a
// group's sender and receivers in one daemon always share a shard.
type ShardedDialer struct {
	shards []transport.GroupTransport
}

// NewShardedDialer wraps the given shard transports. The dialer does
// not own them: close them (or let session shutdown do it) after the
// manager is done.
func NewShardedDialer(shards []transport.GroupTransport) (*ShardedDialer, error) {
	if len(shards) == 0 {
		return nil, errors.New("control: sharded dialer needs at least one shard")
	}
	return &ShardedDialer{shards: shards}, nil
}

// shardOf maps a group name onto a shard index by FNV-1a.
func shardOf(group string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(group))
	return int(h.Sum32() % uint32(n))
}

// Dial implements Dialer: receivers join the group (membership +
// traffic), senders only register it (addressing without membership,
// so a pure sender receives no cross-sender chatter). The returned
// link is shared — admission failures must not close the shard.
func (d *ShardedDialer) Dial(spec FlowSpec) (Link, error) {
	tr := d.shards[shardOf(spec.Group, len(d.shards))]
	var (
		gid transport.GroupID
		err error
	)
	if spec.Role == RoleRecv {
		gid, err = tr.Join(spec.Group)
	} else {
		gid, err = tr.Register(spec.Group)
	}
	if err != nil {
		return Link{}, err
	}
	return Link{Transport: tr, Group: gid, Shared: true}, nil
}

// ShardStats snapshots each shard's datapath counters, in shard order,
// for the /metrics per-shard series. Shards that cannot report (no
// GroupReporter) yield zero stats.
func (d *ShardedDialer) ShardStats() []transport.GroupStats {
	out := make([]transport.GroupStats, len(d.shards))
	for i, s := range d.shards {
		if r, ok := s.(transport.GroupReporter); ok {
			out[i] = r.GroupStats()
		}
	}
	return out
}
