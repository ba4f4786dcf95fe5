package repro

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/session"
	"repro/internal/transport"
)

// BenchmarkManyGroups measures the thousand-group daemon shape: N
// groups, each one sender flow and one receiver flow, multiplexed over
// a fixed pool of shared group transports (8 sender-side + 8
// receiver-side hub endpoints, the in-memory stand-in for hrmcd's shard
// sockets). The interesting series is per-group cost — ns/group must
// stay roughly flat from 1 group to 1,000, or the shared-socket demux
// has an O(groups) term per packet. The benchmark also reports the
// goroutine growth after all flows are open (before the harness spawns
// its own per-group workers), which must stay O(transports): sharding
// exists precisely so that group count never buys goroutines.
func BenchmarkManyGroups(b *testing.B) {
	for _, groups := range benchGroupCounts() {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			const size = 32 << 10
			datas := make([][]byte, groups)
			scratch := make([][]byte, groups)
			for g := range datas {
				datas[g] = make([]byte, size)
				app.FillPattern(datas[g], int64(g)<<20)
				scratch[g] = make([]byte, 32<<10)
			}
			b.SetBytes(int64(groups) * size)
			maxGrown := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if grown := runManyGroupsTransfer(b, datas, scratch); grown > maxGrown {
					maxGrown = grown
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(groups), "ns/group")
			b.ReportMetric(float64(maxGrown), "goroutines")
		})
	}
}

// benchGroupCounts returns the group counts BenchmarkManyGroups sweeps.
// HRMC_BENCH_GROUPS (comma-separated) overrides the default sweep;
// scripts/bench.sh uses it to pin the tracked 1/64/1000 points.
func benchGroupCounts() []int {
	env := os.Getenv("HRMC_BENCH_GROUPS")
	if env == "" {
		return []int{1, 64, 1000}
	}
	var out []int
	for _, part := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			continue
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return []int{1, 64, 1000}
	}
	return out
}

// runManyGroupsTransfer opens one sender and one receiver flow per
// group over the shared shard endpoints, moves datas[g] on each, and
// returns the goroutine growth measured after every flow was admitted
// but before the harness's own workers start.
func runManyGroupsTransfer(b *testing.B, datas, scratch [][]byte) int {
	b.Helper()
	const shards = 8
	hub := transport.NewHub()
	sess := session.New(session.Config{})
	defer sess.Close()

	goroutinesBefore := runtime.NumGoroutine()
	var snd, rcv [shards]transport.GroupTransport
	for s := 0; s < shards; s++ {
		snd[s] = hub.Endpoint().(transport.GroupTransport)
		rcv[s] = hub.Endpoint().(transport.GroupTransport)
	}

	groups := len(datas)
	type pair struct {
		sf *session.SenderFlow
		rf *session.ReceiverFlow
	}
	pairs := make([]pair, groups)
	for g := 0; g < groups; g++ {
		addr := fmt.Sprintf("239.50.%d.%d", 1+g/254, 1+g%254)
		shard := g % shards
		gid, err := snd[shard].Register(addr)
		if err != nil {
			b.Fatalf("group %d register: %v", g, err)
		}
		if _, err := rcv[shard].Join(addr); err != nil {
			b.Fatalf("group %d join: %v", g, err)
		}
		sp, rp := uint16(2+2*g), uint16(3+2*g)
		rf, err := sess.OpenReceiverFlow(rcv[shard], session.FlowSpec{
			Kind: session.KindReceiver, LocalPort: rp, PeerPort: sp,
			Buf: 128 << 10, Group: gid,
		})
		if err != nil {
			b.Fatalf("group %d receiver: %v", g, err)
		}
		sf, err := sess.OpenSenderFlow(snd[shard], session.FlowSpec{
			Kind: session.KindSender, LocalPort: sp, PeerPort: rp,
			Buf: 128 << 10, Receivers: 1,
			MinRateBps: 32e6, MaxRateBps: 1e9, Group: gid,
		})
		if err != nil {
			b.Fatalf("group %d sender: %v", g, err)
		}
		pairs[g] = pair{sf, rf}
	}
	grown := runtime.NumGoroutine() - goroutinesBefore

	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			buf := scratch[g]
			total := 0
			for {
				n, err := pairs[g].rf.Read(buf)
				total += n
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Errorf("group %d read: %v", g, err)
					break
				}
			}
			if total != len(datas[g]) {
				b.Errorf("group %d: delivered %d bytes, want %d", g, total, len(datas[g]))
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			if _, err := pairs[g].sf.Write(datas[g]); err != nil {
				b.Errorf("group %d write: %v", g, err)
			}
			if err := pairs[g].sf.Close(); err != nil {
				b.Errorf("group %d close: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	return grown
}
