package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
)

// pending reports the number of queued deliveries.
func (q *Inbox) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue) - q.head
}

// outstanding is the packet pool's Get − Put balance.
func outstanding() int64 {
	c := packet.PoolStats()
	return c.Gets - c.Puts
}

// pooled returns n pool-owned envelopes numbered from seq.
func pooled(seq, n int) []Envelope {
	env := make([]Envelope, n)
	for i := range env {
		p := packet.Get()
		p.Header = packet.Header{Type: packet.TypeData, Seq: uint32(seq + i)}
		env[i] = Envelope{Pkt: p, From: 7, Group: 3}
	}
	return env
}

func TestInboxOverflowDropsAndRecycles(t *testing.T) {
	before := outstanding()
	q := NewInbox()
	if d := q.Push(pooled(0, inboxDepth-10)); d != 0 {
		t.Fatalf("push below the depth dropped %d", d)
	}
	if d := q.Push(pooled(inboxDepth-10, 25)); d != 15 {
		t.Errorf("push past the depth dropped %d, want 15", d)
	}
	if n := q.pending(); n != inboxDepth {
		t.Errorf("pending = %d, want %d", n, inboxDepth)
	}
	// The survivors are the first inboxDepth pushed, in order, with
	// their addressing intact.
	buf := make([]Envelope, 100)
	next := uint32(0)
	for q.pending() > 0 {
		n, err := q.RecvBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if buf[i].Pkt.Seq != next || buf[i].From != 7 || buf[i].Group != 3 {
				t.Fatalf("delivery %d: %+v seq %d", next, buf[i], buf[i].Pkt.Seq)
			}
			next++
		}
		ReleaseEnvelopes(buf[:n])
	}
	if next != inboxDepth {
		t.Errorf("drained %d deliveries, want %d", next, inboxDepth)
	}
	if after := outstanding(); after != before {
		t.Errorf("pool balance %d, was %d: dropped packets were not recycled", after, before)
	}
}

func TestInboxHeadCompaction(t *testing.T) {
	q := NewInbox()
	q.Push(pooled(0, 8))
	buf := make([]Envelope, 5)
	if n, _ := q.RecvBatch(buf); n != 5 {
		t.Fatalf("partial pop returned %d, want 5", n)
	}
	ReleaseEnvelopes(buf)
	if q.head != 5 {
		t.Fatalf("head = %d after a partial pop, want 5", q.head)
	}
	// The next push slides the live tail to the front and clears the
	// vacated slots, so consumed packets are not pinned by the queue.
	q.Push(pooled(8, 2))
	if q.head != 0 || len(q.queue) != 5 {
		t.Fatalf("after compaction head=%d len=%d, want 0 and 5", q.head, len(q.queue))
	}
	for i, e := range q.queue[:cap(q.queue)][5:] {
		if e.Pkt != nil {
			t.Errorf("slot %d past the live queue still holds a packet", 5+i)
		}
	}
	big := make([]Envelope, 16)
	n, _ := q.RecvBatch(big)
	for i := 0; i < n; i++ {
		if big[i].Pkt.Seq != uint32(5+i) {
			t.Errorf("delivery %d has seq %d, want %d", i, big[i].Pkt.Seq, 5+i)
		}
	}
	if n != 5 {
		t.Errorf("drained %d, want 5", n)
	}
	ReleaseEnvelopes(big[:n])
	// A full drain resets the queue without waiting for a push.
	if q.head != 0 || len(q.queue) != 0 {
		t.Errorf("after a full drain head=%d len=%d, want 0 and 0", q.head, len(q.queue))
	}
}

// TestInboxNotifyRearms parks two readers on an empty inbox and pushes
// one batch holding a packet for each: the single notify token wakes
// one reader, whose pop must re-arm it for the other.
func TestInboxNotifyRearms(t *testing.T) {
	q := NewInbox()
	got := make(chan uint32, 2)
	for r := 0; r < 2; r++ {
		go func() {
			var one [1]Envelope
			if _, err := q.RecvBatch(one[:]); err != nil {
				t.Error(err)
				return
			}
			got <- one[0].Pkt.Seq
			PutPacket(one[0].Pkt)
		}()
	}
	q.Push(pooled(0, 2))
	seen := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		select {
		case s := <-got:
			seen[s] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("reader %d never woke: the notify token was not re-armed", i)
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("readers saw %v, want both packets once", seen)
	}
}

func TestInboxCloseDrainsThenErrClosed(t *testing.T) {
	q := NewInbox()
	q.Push(pooled(0, 3))
	q.Close()
	q.Close()
	buf := make([]Envelope, 2)
	total := 0
	for {
		n, err := q.RecvBatch(buf)
		if err != nil {
			if err != ErrClosed {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
			break
		}
		total += n
		ReleaseEnvelopes(buf[:n])
	}
	if total != 3 {
		t.Errorf("drained %d after Close, want 3", total)
	}
}

// TestInboxPushRacingCloseLeaksNothing races producers against Close:
// every pushed packet is either drained by the reader or recycled by
// Push, so the pool balance returns to where it started.
func TestInboxPushRacingCloseLeaksNothing(t *testing.T) {
	before := outstanding()
	for round := 0; round < 50; round++ {
		q := NewInbox()
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					q.Push(pooled(i, 4))
				}
			}()
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]Envelope, 8)
			for {
				n, err := q.RecvBatch(buf)
				if err != nil {
					return
				}
				ReleaseEnvelopes(buf[:n])
			}
		}()
		q.Close()
		wg.Wait()
		<-drained
		if n := q.pending(); n != 0 {
			t.Fatalf("round %d: %d deliveries stranded in a closed inbox", round, n)
		}
	}
	if after := outstanding(); after != before {
		t.Errorf("pool balance %d, was %d", after, before)
	}
}
