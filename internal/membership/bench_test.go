package membership

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/seqspace"
)

func benchTable(n int) *Table {
	var t Table
	for i := 0; i < n; i++ {
		t.Add(packet.NodeID(i+1), 0)
		t.Update(packet.NodeID(i+1), seqspace.Seq(i), 0)
	}
	return &t
}

func BenchmarkLookup100(b *testing.B) {
	t := benchTable(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t.Lookup(packet.NodeID(i%100+1)) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkUpdate100(b *testing.B) {
	t := benchTable(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Update(packet.NodeID(i%100+1), seqspace.Seq(i), 0)
	}
}

func BenchmarkLacking100(b *testing.B) {
	t := benchTable(100)
	var dst []*Member
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = t.Lacking(50, dst[:0])
	}
	if len(dst) == 0 {
		b.Fatal("no lacking members")
	}
}

func BenchmarkAddRemove(b *testing.B) {
	var t Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := packet.NodeID(i%512 + 1)
		t.Add(addr, 0)
		t.Remove(addr)
	}
}
