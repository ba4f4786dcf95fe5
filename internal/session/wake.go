package session

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/sim"
)

// quantum is the finest interval at which the driver wakes one flow from
// its timer, and what OpenSender and OpenReceiver stamp on the machines
// as their Quantum: the floors they keep because of timer resolution
// follow it (DESIGN.md §12 has why it is 350 µs: what 1 ms, 300 and 400 cost).
const quantum = 350 * sim.Microsecond

// deadline is one entry of the session's wake heap: the next time a flow
// machine (or the governor) has something to do unprompted. A flow with
// none — idle, or waiting on its peer — has no entry and costs nothing.
type deadline struct {
	fire func(now sim.Time)
	at   sim.Time // guarded by wakes.mu, like idx
	idx  int      // position in the heap; -1 while not queued
}

// wakes is the session's deadline min-heap and what its one sleeper
// waits on: its timer, a booking ahead of it, and shutdown poke it.
type wakes struct {
	mu    sync.Mutex
	heap  deadlineHeap
	sleep sync.Cond // L is &mu
}

func (w *wakes) poke() {
	w.mu.Lock()
	w.sleep.Signal()
	w.mu.Unlock()
}

type deadlineHeap []*deadline

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h deadlineHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *deadlineHeap) Push(x any) {
	x.(*deadline).idx = len(*h)
	*h = append(*h, x.(*deadline))
}
func (h *deadlineHeap) Pop() any {
	last := len(*h) - 1
	d := (*h)[last]
	(*h)[last], d.idx = nil, -1
	*h = (*h)[:last]
	return d
}

// book sets d's deadline (ok) or clears it, and wakes the sleeper when d
// has become the earliest.
func (s *Session) book(d *deadline, at sim.Time, ok bool) {
	w := &s.wakes
	w.mu.Lock()
	defer w.mu.Unlock()
	moved := ok && (d.idx < 0 || d.at != at)
	switch {
	case !ok && d.idx >= 0:
		heap.Remove(&w.heap, d.idx)
	case moved && d.idx < 0:
		d.at = at
		heap.Push(&w.heap, d)
	case moved:
		d.at = at
		heap.Fix(&w.heap, d.idx)
	}
	if moved && w.heap[0] == d {
		w.sleep.Signal()
	}
}

// runWakes is the driver: it fires every deadline that has come due and
// sleeps until the next. Its timer is the only place the session waits
// for time to pass.
func (s *Session) runWakes() {
	defer s.wg.Done()
	w := &s.wakes
	timer := time.AfterFunc(time.Hour, w.poke)
	defer timer.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		now := s.now()
		if len(w.heap) > 0 && w.heap[0].at <= now {
			d := heap.Pop(&w.heap).(*deadline)
			w.mu.Unlock()
			d.fire(now)
			w.mu.Lock()
			continue
		}
		if len(w.heap) > 0 {
			timer.Reset(time.Duration(w.heap[0].at - now))
		}
		w.sleep.Wait()
	}
}
