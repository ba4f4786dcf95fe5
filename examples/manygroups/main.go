// Manygroups: the thousand-group daemon shape in one process — 200
// multicast groups, each a sender and a receiver, admitted through the
// control plane onto a ShardedDialer with FOUR shared group transports.
// Every group hashes to a shard; receivers Join, senders Register, and
// arrivals demux by the destination group address the shard tags each
// envelope with. Serving all 200 groups costs O(shards) transports —
// and, over real UDP, O(shards) sockets and receive pollers — not
// O(groups); the run prints the per-shard membership to show the hash
// spreading groups across the pool. (Each active transfer still holds
// one control-plane stream-pump goroutine; it is the kernel-facing
// side that sharding keeps constant.)
//
// The same topology over real UDP is one hrmcd config away: "shards"
// picks the socket-pair count, "data_port" the UDP port every group
// shares (one socket joins many groups; IP_PKTINFO demuxes):
//
//	{
//	  "shards": 4,
//	  "data_port": 9999,
//	  "loopback": true,
//	  "groups": [
//	    {"name": "dist-0",   "group": "239.66.1.1", "role": "send",
//	     "size": 65536, "receivers": 1},
//	    {"name": "mirror-0", "group": "239.66.1.1", "role": "recv"},
//	    {"name": "dist-1",   "group": "239.66.1.2", "role": "send",
//	     "size": 65536, "receivers": 1},
//	    {"name": "mirror-1", "group": "239.66.1.2", "role": "recv"}
//	  ]
//	}
//
// (Past ~20 groups per shard, raise net.ipv4.igmp_max_memberships.)
//
// Every mirror checks its stream against the generated pattern; the run
// exits non-zero unless all 400 flows end done and every mirror holds
// all its bytes intact.
//
//	go run ./examples/manygroups
package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/app"
	"repro/internal/control"
	"repro/internal/session"
	"repro/internal/transport"
)

const (
	groups   = 200
	shards   = 4
	sizeEach = 24 << 10
)

func main() {
	hub := transport.NewHub()
	sess := session.New(session.Config{})
	defer sess.Close()

	// The shard pool: every admitted flow lands on one of these four
	// shared transports, picked by hashing its group address.
	pool := make([]transport.GroupTransport, shards)
	for i := range pool {
		pool[i] = hub.Endpoint().(transport.GroupTransport)
	}
	dialer, err := control.NewShardedDialer(pool)
	if err != nil {
		log.Fatal(err)
	}
	mgr := control.NewManager(control.ManagerConfig{
		Session:  sess,
		Dialer:   dialer,
		OpenSink: func(control.FlowSpec) (io.WriteCloser, error) { return &verifySink{}, nil },
	})

	specs := make([]control.FlowSpec, 0, 2*groups)
	for g := 0; g < groups; g++ {
		addr := fmt.Sprintf("239.66.%d.%d", 1+g/254, 1+g%254)
		specs = append(specs,
			control.FlowSpec{Name: fmt.Sprintf("mirror-%d", g), Group: addr, Role: control.RoleRecv},
			control.FlowSpec{Name: fmt.Sprintf("dist-%d", g), Group: addr, Role: control.RoleSend,
				Size: sizeEach, Receivers: 1},
		)
	}
	control.AssignPorts(specs)
	for _, spec := range specs {
		if _, err := mgr.Admit(spec); err != nil {
			log.Fatalf("admit %s: %v", spec.Name, err)
		}
	}
	mgr.Wait()
	done := 0
	for _, fs := range mgr.List() {
		if fs.State == control.StateDone {
			done++
		} else {
			fmt.Printf("%s: %s %s\n", fs.Name, fs.State, fs.Error)
		}
	}
	fmt.Printf("%d/%d flows done (%d groups x %d KiB)\n",
		done, 2*groups, groups, sizeEach>>10)
	// The hub meters membership only; the udpmcast shards additionally
	// count per-shard packets, truncations, and send errors here.
	for i, st := range dialer.ShardStats() {
		fmt.Printf("shard %d: groups joined=%d\n", i, st.Joined)
	}
	fmt.Printf("%d flows multiplexed over %d shared transports (%d UDP sockets in hrmcd's sharded mode)\n",
		2*groups, shards, 2*shards)
	if done != 2*groups {
		log.Fatalf("%d of %d flows did not finish done", 2*groups-done, 2*groups)
	}
}

// verifySink checks a mirror's stream against the senders' pattern. It
// reads on past a bad byte so the sender still drains; Close reports
// the first bad byte or a short stream, which fails the flow.
type verifySink struct {
	off int64
	bad error
}

func (v *verifySink) Write(p []byte) (int, error) {
	if i := app.VerifyPattern(p, v.off); i >= 0 && v.bad == nil {
		v.bad = fmt.Errorf("byte %d differs from the pattern", v.off+int64(i))
	}
	v.off += int64(len(p))
	return len(p), nil
}

func (v *verifySink) Close() error {
	if v.bad == nil && v.off != sizeEach {
		v.bad = fmt.Errorf("received %d of %d bytes", v.off, sizeEach)
	}
	return v.bad
}
