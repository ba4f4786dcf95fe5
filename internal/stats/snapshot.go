// Snapshot and aggregation support: a session hosting many concurrent
// flows needs to report per-flow and whole-process counter totals while
// the protocol machines are still running. Snapshot copies use atomic
// loads so a monitor never sees a torn 64-bit read; cross-field
// consistency additionally requires holding whatever lock serializes
// the machine (internal/session snapshots under each flow's lock).
package stats

import (
	"reflect"
	"sync/atomic"
)

// Snapshot returns a copy of the sender counters with every field read
// atomically.
func (s *Sender) Snapshot() Sender {
	var out Sender
	atomicCopy(&out, s)
	return out
}

// Snapshot returns a copy of the receiver counters with every field
// read atomically.
func (r *Receiver) Snapshot() Receiver {
	var out Receiver
	atomicCopy(&out, r)
	return out
}

// Aggregate accumulates totals across many flows' counters, giving a
// session-wide view of protocol activity. The zero value is ready to
// use.
type Aggregate struct {
	SenderFlows   int // flows merged with AddSender
	ReceiverFlows int // flows merged with AddReceiver

	Sender   Sender   // field-wise totals over all merged sender flows
	Receiver Receiver // field-wise totals over all merged receiver flows
}

// AddSender merges an atomically-read copy of s into the totals.
func (a *Aggregate) AddSender(s *Sender) {
	a.SenderFlows++
	cp := s.Snapshot()
	mergeInt64(&a.Sender, &cp)
}

// AddReceiver merges an atomically-read copy of r into the totals.
func (a *Aggregate) AddReceiver(r *Receiver) {
	a.ReceiverFlows++
	cp := r.Snapshot()
	mergeInt64(&a.Receiver, &cp)
}

// gauges are the fields that read as a level, not a running count: the
// control plane's /metrics types them gauge, and every other int64
// field counter.
var gauges = map[string]bool{
	"RateBps":           true,
	"CeilingBps":        true,
	"MaxFillPermille":   true,
	"RTTMicros":         true,
	"RepairHead":        true,
	"RepairMembers":     true,
	"RepairHeads":       true,
	"DownstreamMembers": true,
	"OrphanedLeaves":    true,
}

// maxFields are the gauges an Aggregate merges by maximum; it sums the
// others, like every counter.
var maxFields = map[string]bool{"MaxFillPermille": true, "RTTMicros": true}

// Gauge reports whether the Sender or Receiver field of the given name
// is a gauge.
func Gauge(field string) bool { return gauges[field] }

// atomicCopy copies every int64 field of src into dst with atomic
// loads. Both arguments must be pointers to the same struct type.
func atomicCopy(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src).Elem()
	for i := 0; i < s.NumField(); i++ {
		if s.Field(i).Kind() != reflect.Int64 {
			continue
		}
		v := atomic.LoadInt64(s.Field(i).Addr().Interface().(*int64))
		d.Field(i).SetInt(v)
	}
}

// mergeInt64 adds src's int64 fields into dst, taking the maximum for
// gauge fields. Both arguments must be pointers to the same struct
// type.
func mergeInt64(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src).Elem()
	t := s.Type()
	for i := 0; i < s.NumField(); i++ {
		if s.Field(i).Kind() != reflect.Int64 {
			continue
		}
		sv := s.Field(i).Int()
		if maxFields[t.Field(i).Name] {
			if sv > d.Field(i).Int() {
				d.Field(i).SetInt(sv)
			}
		} else {
			d.Field(i).SetInt(d.Field(i).Int() + sv)
		}
	}
}
