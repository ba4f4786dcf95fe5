package receiver

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// BenchmarkInOrderDataPath measures the Main Packet Processor's
// fast path: in-order DATA arrival plus application read.
func BenchmarkInOrderDataPath(b *testing.B) {
	r := New(Config{RcvBuf: 4 << 20, MSS: 1400})
	payload := make([]byte, 1400)
	buf := make([]byte, 4096)
	b.SetBytes(1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := &packet.Packet{
			Header:  packet.Header{Type: packet.TypeData, Seq: uint32(i), Length: 1400, RateAdv: 1e6},
			Payload: payload,
		}
		r.HandlePacket(sim.Time(i), p)
		for r.Buffered() > 0 {
			r.Read(sim.Time(i), buf)
		}
		r.Outgoing()
	}
}

// BenchmarkLossRecoveryPath measures gap detection + NAK generation +
// hole filling for every other packet.
func BenchmarkLossRecoveryPath(b *testing.B) {
	r := New(Config{RcvBuf: 4 << 20, MSS: 1400})
	payload := make([]byte, 1400)
	buf := make([]byte, 8192)
	b.SetBytes(2 * 1400)
	b.ReportAllocs()
	seq := uint32(0)
	for i := 0; i < b.N; i++ {
		gap := &packet.Packet{
			Header:  packet.Header{Type: packet.TypeData, Seq: seq + 1, Length: 1400},
			Payload: payload,
		}
		fill := &packet.Packet{
			Header:  packet.Header{Type: packet.TypeData, Seq: seq, Length: 1400},
			Payload: payload,
		}
		now := sim.Time(i)
		r.HandlePacket(now, gap)
		r.HandlePacket(now, fill)
		seq += 2
		for r.Buffered() > 0 {
			r.Read(now, buf)
		}
		r.Outgoing()
	}
	if r.NextExpected() != seqspace.Seq(seq) {
		b.Fatalf("reassembly lost packets: next=%d want %d", r.NextExpected(), seq)
	}
}
