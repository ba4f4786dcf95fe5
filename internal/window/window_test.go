package window

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/seqspace"
)

func dataPkt(n int) *packet.Packet {
	return &packet.Packet{
		Header:  packet.Header{Type: packet.TypeData, Length: uint32(n)},
		Payload: make([]byte, n),
	}
}

func dataPktSeq(seq seqspace.Seq, payload []byte) *packet.Packet {
	return &packet.Packet{
		Header:  packet.Header{Type: packet.TypeData, Seq: uint32(seq), Length: uint32(len(payload))},
		Payload: payload,
	}
}

func TestSendWindowInsertAssignsSequence(t *testing.T) {
	w := NewSendWindow(10000, 100)
	for i := 0; i < 3; i++ {
		seq, err := w.Insert(dataPkt(50))
		if err != nil {
			t.Fatal(err)
		}
		if seq != seqspace.Seq(100+i) {
			t.Errorf("assigned seq %d, want %d", seq, 100+i)
		}
	}
	if w.Base() != 100 || w.Next() != 103 || w.Len() != 3 {
		t.Errorf("window state base=%d next=%d len=%d", w.Base(), w.Next(), w.Len())
	}
	wantBytes := 3 * (packet.HeaderSize + 50)
	if w.Bytes() != wantBytes || w.Free() != 10000-wantBytes {
		t.Errorf("bytes=%d free=%d", w.Bytes(), w.Free())
	}
}

func TestSendWindowByteLimit(t *testing.T) {
	w := NewSendWindow(200, 0)
	if _, err := w.Insert(dataPkt(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert(dataPkt(100)); err != ErrWindowFull {
		t.Errorf("over-budget insert: err = %v, want ErrWindowFull", err)
	}
	// An oversized packet fits when the window is empty.
	w2 := NewSendWindow(10, 0)
	if _, err := w2.Insert(dataPkt(500)); err != nil {
		t.Errorf("oversized packet into empty window rejected: %v", err)
	}
}

func TestSendWindowEntryLookup(t *testing.T) {
	w := NewSendWindow(1<<20, 10)
	for i := 0; i < 5; i++ {
		w.Insert(dataPkt(10))
	}
	e := w.Entry(12)
	if e == nil || e.Pkt.Seq != 12 {
		t.Fatalf("Entry(12) = %v", e)
	}
	if w.Entry(9) != nil || w.Entry(15) != nil {
		t.Error("out-of-range lookup returned an entry")
	}
	w.Release()
	if w.Entry(10) != nil {
		t.Error("released entry still reachable")
	}
	if w.Entry(12).Pkt.Seq != 12 {
		t.Error("lookup broken after release")
	}
}

func TestSendWindowReleaseOrder(t *testing.T) {
	w := NewSendWindow(1<<20, 0)
	for i := 0; i < 300; i++ {
		w.Insert(dataPkt(1))
	}
	for i := 0; i < 300; i++ {
		e := w.Release()
		if e == nil || e.Pkt.Seq != uint32(i) {
			t.Fatalf("release %d returned %v", i, e)
		}
		if w.Base() != seqspace.Seq(i+1) {
			t.Fatalf("base = %d after releasing %d", w.Base(), i)
		}
	}
	if w.Release() != nil {
		t.Error("release on empty window returned an entry")
	}
	if w.Bytes() != 0 {
		t.Errorf("bytes = %d after full drain", w.Bytes())
	}
}

func TestSendWindowEachAndFirstUnsent(t *testing.T) {
	w := NewSendWindow(1<<20, 0)
	for i := 0; i < 4; i++ {
		w.Insert(dataPkt(1))
	}
	w.Entry(0).Tries = 1
	w.Entry(1).Tries = 2
	seq, e := w.FirstUnsent()
	if e == nil || seq != 2 {
		t.Errorf("FirstUnsent = %d,%v, want 2", seq, e)
	}
	var seqs []seqspace.Seq
	w.Each(func(s seqspace.Seq, _ *SendEntry) bool {
		seqs = append(seqs, s)
		return len(seqs) < 3
	})
	if len(seqs) != 3 || seqs[0] != 0 || seqs[2] != 2 {
		t.Errorf("Each visited %v", seqs)
	}
	w.Entry(2).Tries = 1
	w.Entry(3).Tries = 1
	if _, e := w.FirstUnsent(); e != nil {
		t.Error("FirstUnsent found an entry in a fully sent window")
	}
}

// FirstUnsent keeps a cursor instead of scanning from the front. Drive
// the window the way the sender does — Insert, first transmissions in
// order, retransmissions, Release of the front, the drain ReleaseBuffers
// does — long enough to cross the head compaction many times, and
// compare every answer with the linear scan.
func TestFirstUnsentCursorMatchesScan(t *testing.T) {
	scan := func(w *SendWindow) (seq seqspace.Seq, found *SendEntry) {
		w.Each(func(s seqspace.Seq, e *SendEntry) bool {
			if !e.Sent() {
				seq, found = s, e
			}
			return found == nil
		})
		return seq, found
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewSendWindow(300*(packet.HeaderSize+1), seqspace.Seq(rng.Uint32()))
		compactions := 0
		for step := 0; step < 20000; step++ {
			headBefore := w.head
			switch op := rng.Intn(100); {
			case op < 40:
				w.Insert(dataPkt(1)) // ErrWindowFull when full: nothing changes
			case op < 70: // first transmission
				if _, e := w.FirstUnsent(); e != nil {
					e.Tries++
				}
			case op < 80: // retransmission of something already sent
				if e := w.Entry(w.Base() + seqspace.Seq(rng.Intn(w.Len()+1))); e != nil && e.Sent() {
					e.Tries++
				}
			case op < 99: // release, sent or not
				w.Release()
			default: // teardown drain
				for w.Release() != nil {
				}
			}
			if w.head < headBefore {
				compactions++
			}
			wantSeq, want := scan(w)
			if seq, e := w.FirstUnsent(); e != want || seq != wantSeq {
				t.Fatalf("seed %d step %d: FirstUnsent = %d,%p, linear scan %d,%p (base %d, %d buffered)",
					seed, step, seq, e, wantSeq, want, w.Base(), w.Len())
			}
		}
		if compactions < 10 {
			t.Errorf("seed %d: %d head compactions, want the sequence to cross many", seed, compactions)
		}
	}
}

func TestReceiveWindowInOrder(t *testing.T) {
	w := NewReceiveWindow(16, 0)
	for i := 0; i < 4; i++ {
		res := w.Insert(dataPktSeq(seqspace.Seq(i), []byte{byte(i)}))
		if res != AcceptedInOrder {
			t.Fatalf("packet %d: %v", i, res)
		}
	}
	if w.Next() != 4 || w.HighestEnd() != 4 || w.Buffered() != 4 {
		t.Fatalf("state next=%d highest=%d buffered=%d", w.Next(), w.HighestEnd(), w.Buffered())
	}
	buf := make([]byte, 10)
	n, fin := w.Read(buf)
	if n != 4 || fin {
		t.Fatalf("Read = %d,%v", n, fin)
	}
	if !bytes.Equal(buf[:4], []byte{0, 1, 2, 3}) {
		t.Errorf("Read returned %v", buf[:4])
	}
	if w.Base() != 4 {
		t.Errorf("base = %d after reading, want 4", w.Base())
	}
}

func TestReceiveWindowOutOfOrderReassembly(t *testing.T) {
	w := NewReceiveWindow(16, 0)
	if res := w.Insert(dataPktSeq(2, []byte{2})); res != Accepted {
		t.Fatalf("ooo insert: %v", res)
	}
	if w.Next() != 0 || w.HighestEnd() != 3 || w.OOOCount() != 1 {
		t.Fatalf("state next=%d highest=%d ooo=%d", w.Next(), w.HighestEnd(), w.OOOCount())
	}
	gaps := w.Missing(nil)
	if len(gaps) != 1 || gaps[0].From != 0 || gaps[0].To != 2 {
		t.Fatalf("Missing = %v", gaps)
	}
	w.Insert(dataPktSeq(0, []byte{0}))
	if w.Next() != 1 {
		t.Fatalf("next = %d after filling 0", w.Next())
	}
	// Filling the last hole drains the contiguous run.
	if res := w.Insert(dataPktSeq(1, []byte{1})); res != AcceptedInOrder {
		t.Fatal("hole fill not in-order")
	}
	if w.Next() != 3 || w.OOOCount() != 0 || w.Buffered() != 3 {
		t.Fatalf("after reassembly next=%d ooo=%d buffered=%d", w.Next(), w.OOOCount(), w.Buffered())
	}
	buf := make([]byte, 3)
	w.Read(buf)
	if !bytes.Equal(buf, []byte{0, 1, 2}) {
		t.Errorf("reassembled stream = %v", buf)
	}
}

func TestReceiveWindowDuplicatesAndBounds(t *testing.T) {
	w := NewReceiveWindow(8, 0)
	w.Insert(dataPktSeq(0, []byte{0}))
	if res := w.Insert(dataPktSeq(0, []byte{0})); res != Duplicate {
		t.Errorf("replayed in-order packet: %v", res)
	}
	w.Insert(dataPktSeq(3, []byte{3}))
	if res := w.Insert(dataPktSeq(3, []byte{3})); res != Duplicate {
		t.Errorf("replayed ooo packet: %v", res)
	}
	if res := w.Insert(dataPktSeq(8, []byte{8})); res != OutOfWindow {
		t.Errorf("beyond-window packet: %v", res)
	}
	// After the app reads packet 0, the window slides and seq 8 fits.
	w.Insert(dataPktSeq(1, []byte{1}))
	w.Insert(dataPktSeq(2, []byte{2}))
	buf := make([]byte, 4)
	w.Read(buf)
	if w.Base() != 4 {
		t.Fatalf("base = %d", w.Base())
	}
	if res := w.Insert(dataPktSeq(8, []byte{8})); res != Accepted {
		t.Errorf("packet 8 after slide: %v", res)
	}
}

func TestReceiveWindowRegions(t *testing.T) {
	w := NewReceiveWindow(16, 0)
	if w.Region() != Safe {
		t.Errorf("empty window region = %v", w.Region())
	}
	// Fill 3 of 16 (19%): still safe.
	for i := 0; i < 3; i++ {
		w.Insert(dataPktSeq(seqspace.Seq(i), []byte{0}))
	}
	if w.Region() != Safe {
		t.Errorf("3/16 region = %v, want safe", w.Region())
	}
	// 4/16 = 25%: warning.
	w.Insert(dataPktSeq(3, []byte{0}))
	if w.Region() != Warning {
		t.Errorf("4/16 region = %v, want warning", w.Region())
	}
	// 12/16 = 75%: critical.
	for i := 4; i < 12; i++ {
		w.Insert(dataPktSeq(seqspace.Seq(i), []byte{0}))
	}
	if w.Region() != Critical {
		t.Errorf("12/16 region = %v, want critical", w.Region())
	}
	if w.Empty() != 4 {
		t.Errorf("Empty = %d, want 4", w.Empty())
	}
	// An out-of-order packet deep in the window counts toward fill: a
	// fresh window with only seq 13 present is already critical — this
	// is how loss-induced reordering drives the paper's rate requests.
	w2 := NewReceiveWindow(16, 0)
	w2.Insert(dataPktSeq(13, []byte{0}))
	if w2.Fill() != 14 {
		t.Errorf("Fill with ooo at 13 = %d, want 14", w2.Fill())
	}
	if w2.Region() != Critical {
		t.Errorf("ooo fill region = %v, want critical", w2.Region())
	}
}

func TestReceiveWindowReadPartialPacket(t *testing.T) {
	w := NewReceiveWindow(8, 0)
	w.Insert(dataPktSeq(0, []byte("abcdef")))
	buf := make([]byte, 4)
	n, _ := w.Read(buf)
	if n != 4 || string(buf) != "abcd" {
		t.Fatalf("partial read = %d %q", n, buf)
	}
	if w.Base() != 0 {
		t.Error("base advanced before the packet was fully consumed")
	}
	n, _ = w.Read(buf)
	if n != 2 || string(buf[:2]) != "ef" {
		t.Fatalf("second read = %d %q", n, buf[:2])
	}
	if w.Base() != 1 {
		t.Error("base did not advance after full consumption")
	}
}

func TestReceiveWindowFIN(t *testing.T) {
	w := NewReceiveWindow(8, 0)
	w.Insert(dataPktSeq(0, []byte("xy")))
	p := dataPktSeq(1, []byte("z"))
	p.Flags = packet.FlagFIN
	w.Insert(p)
	if !w.PeekFIN() {
		t.Error("PeekFIN missed a reassembled FIN")
	}
	buf := make([]byte, 10)
	n, fin := w.Read(buf)
	if n != 3 || !fin {
		t.Fatalf("Read = %d,%v, want 3,true", n, fin)
	}
	if string(buf[:3]) != "xyz" {
		t.Errorf("stream = %q", buf[:3])
	}
}

func TestReceiveWindowEmptyFINPacket(t *testing.T) {
	w := NewReceiveWindow(8, 0)
	p := dataPktSeq(0, nil)
	p.Flags = packet.FlagFIN
	w.Insert(p)
	buf := make([]byte, 4)
	n, fin := w.Read(buf)
	if n != 0 || !fin {
		t.Fatalf("empty FIN read = %d,%v", n, fin)
	}
	if w.Base() != 1 {
		t.Error("empty FIN did not advance base")
	}
}

func TestGapCount(t *testing.T) {
	g := Gap{From: 5, To: 9}
	if g.Count() != 4 {
		t.Errorf("Gap count = %d", g.Count())
	}
}

// Property: any permutation of packet arrivals (with duplicates) inside
// the window reassembles the exact original stream.
func TestPropReassemblyAnyOrder(t *testing.T) {
	f := func(order []uint8, dup []uint8, seed uint8) bool {
		const n = 24
		w := NewReceiveWindow(n, 0)
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i) ^ seed
		}
		mk := func(i int) *packet.Packet {
			p := dataPktSeq(seqspace.Seq(i), []byte{want[i]})
			if i == n-1 {
				p.Flags = packet.FlagFIN
			}
			return p
		}
		// Build an arrival order: a permutation from the fuzz input.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i, o := range order {
			j := int(o) % n
			k := i % n
			perm[j], perm[k] = perm[k], perm[j]
		}
		for idx, i := range perm {
			w.Insert(mk(i))
			if idx < len(dup) {
				w.Insert(mk(int(dup[idx]) % n)) // duplicate injection
			}
		}
		got := make([]byte, 0, n)
		buf := make([]byte, 5)
		for {
			c, fin := w.Read(buf)
			got = append(got, buf[:c]...)
			if fin {
				break
			}
			if c == 0 {
				return false // stream stalled before FIN
			}
		}
		return bytes.Equal(got, want) && w.Base() == n && w.OOOCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Fill + Empty == Size whenever fill is within the window, and
// Missing gaps exactly cover [Next, HighestEnd) minus stored packets.
func TestPropFillAndGapsConsistent(t *testing.T) {
	f := func(seqs []uint8) bool {
		const size = 32
		w := NewReceiveWindow(size, 0)
		present := map[seqspace.Seq]bool{}
		for _, s := range seqs {
			seq := seqspace.Seq(s % (size + 8)) // some out-of-window
			res := w.Insert(dataPktSeq(seq, []byte{0}))
			if res == Accepted || res == AcceptedInOrder {
				present[seq] = true
			}
		}
		if w.Fill()+w.Empty() != size && w.Empty() != 0 {
			return false
		}
		// Gaps + present must tile [Next, HighestEnd).
		covered := map[seqspace.Seq]bool{}
		for _, g := range w.Missing(nil) {
			for s := g.From; seqspace.Before(s, g.To); s++ {
				if present[s] || covered[s] {
					return false
				}
				covered[s] = true
			}
		}
		for s := w.Next(); seqspace.Before(s, w.HighestEnd()); s++ {
			if !covered[s] && !present[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Rebase is the late-join anchor: an untouched window moves to the
// anchor sequence; any received or announced state refuses the move.
func TestReceiveWindowRebase(t *testing.T) {
	w := NewReceiveWindow(8, 0)
	if !w.Rebase(100) {
		t.Fatal("empty window refused Rebase")
	}
	if w.Base() != 100 || w.Next() != 100 {
		t.Fatalf("base=%d next=%d after Rebase, want 100,100", w.Base(), w.Next())
	}
	// The anchored window accepts the stream from there; below-anchor
	// history counts as already delivered, not a gap to NAK.
	if res := w.Insert(dataPktSeq(100, []byte{1})); res != AcceptedInOrder {
		t.Fatalf("insert at anchor: %v", res)
	}
	if res := w.Insert(dataPktSeq(99, []byte{0})); res != Duplicate {
		t.Fatalf("pre-anchor history: %v, want Duplicate", res)
	}
	if w.Rebase(200) {
		t.Error("non-empty window accepted Rebase")
	}
	// Announced-only state (a KEEPALIVE extended the frontier) also
	// pins the window: rebasing away would erase a visible loss.
	w2 := NewReceiveWindow(8, 0)
	w2.ExtendHighest(3)
	if w2.Rebase(50) {
		t.Error("window with announced gaps accepted Rebase")
	}
}
