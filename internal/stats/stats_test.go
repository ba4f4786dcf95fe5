package stats

import (
	"reflect"
	"testing"
)

func TestSnapshotCopies(t *testing.T) {
	s := &Sender{PacketsSent: 5, Releases: 2, ReleasesCompleteInfo: 1}
	cp := s.Snapshot()
	if cp != *s {
		t.Errorf("snapshot %+v differs from source %+v", cp, *s)
	}
	s.PacketsSent++
	if cp.PacketsSent != 5 {
		t.Errorf("snapshot tracked the live struct: PacketsSent = %d", cp.PacketsSent)
	}

	r := &Receiver{DataReceived: 7, MaxFillPermille: 420}
	rcp := r.Snapshot()
	if rcp != *r {
		t.Errorf("receiver snapshot %+v differs from source %+v", rcp, *r)
	}
}

func TestAggregateMerges(t *testing.T) {
	var a Aggregate
	a.AddSender(&Sender{PacketsSent: 3, BytesSent: 100, Releases: 2, ReleasesCompleteInfo: 1, ReleaseBlockedMicros: 30})
	a.AddSender(&Sender{PacketsSent: 4, Retransmissions: 2, Releases: 2, ReleasesCompleteInfo: 2, ReleaseBlockedMicros: 12})
	a.AddReceiver(&Receiver{BytesDelivered: 10, MaxFillPermille: 500})
	a.AddReceiver(&Receiver{BytesDelivered: 5, MaxFillPermille: 200})

	if a.SenderFlows != 2 || a.ReceiverFlows != 2 {
		t.Errorf("flow counts = %d/%d, want 2/2", a.SenderFlows, a.ReceiverFlows)
	}
	if a.Sender.PacketsSent != 7 || a.Sender.BytesSent != 100 || a.Sender.Retransmissions != 2 || a.Sender.ReleaseBlockedMicros != 42 {
		t.Errorf("sender totals wrong: %+v", a.Sender)
	}
	if got := a.Sender.ReleaseInfoRatio(); got != 0.75 {
		t.Errorf("merged ReleaseInfoRatio = %v, want 0.75", got)
	}
	if a.Receiver.BytesDelivered != 15 {
		t.Errorf("BytesDelivered = %d, want 15", a.Receiver.BytesDelivered)
	}
	// MaxFillPermille is a gauge: merged by maximum, not summed.
	if a.Receiver.MaxFillPermille != 500 {
		t.Errorf("MaxFillPermille = %d, want max 500", a.Receiver.MaxFillPermille)
	}
}

// TestGaugeListsNameInt64Fields keeps the gauge lists honest: a
// misspelt or retired name would silently type a gauge as a counter on
// /metrics, or sum a maximum across flows.
func TestGaugeListsNameInt64Fields(t *testing.T) {
	isInt64Field := func(name string) bool {
		for _, v := range []any{Sender{}, Receiver{}} {
			if f, ok := reflect.TypeOf(v).FieldByName(name); ok && f.Type.Kind() == reflect.Int64 {
				return true
			}
		}
		return false
	}
	for name := range gauges {
		if !isInt64Field(name) {
			t.Errorf("gauge %q is not an int64 field of stats.Sender or stats.Receiver", name)
		}
	}
	for name := range maxFields {
		if !Gauge(name) {
			t.Errorf("max-merged field %q is not listed as a gauge", name)
		}
	}
}
