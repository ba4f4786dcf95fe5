package netsim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"

	"repro/internal/packet"
)

// OnNew installs (or, with nil, removes) the hook that sees every
// Network New creates.
func OnNew(f func(*Network)) { newHook = f }

// Seams reaches a Network's or a Hierarchy's test hooks: wakeDriven makes
// the driver run its machines only when their NextWake is due, emitted
// taps every packet a machine emits.
func (s *seams) Seams(wakeDriven bool, emitted func(from packet.NodeID, p *packet.Packet, multicast bool, to packet.NodeID)) {
	s.wakeDriven, s.emitted = wakeDriven, emitted
}

// PacketHash folds every packet a machine hands the network into one
// FNV: type, tries, flags, destination, seq, length, rate, ports, origin
// and payload. Its Add is an emitted seam.
type PacketHash struct {
	h       hash.Hash64
	Packets int
}

// NewPacketHash returns an empty fold.
func NewPacketHash() *PacketHash { return &PacketHash{h: fnv.New64a()} }

// Add folds one emitted packet.
func (ph *PacketHash) Add(from packet.NodeID, p *packet.Packet, multicast bool, to packet.NodeID) {
	var b [26]byte
	b[0], b[1], b[2] = byte(p.Type), p.Tries, p.Flags
	if multicast {
		b[3] = 1
	}
	binary.LittleEndian.PutUint32(b[4:], p.Seq)
	binary.LittleEndian.PutUint32(b[8:], p.Length)
	binary.LittleEndian.PutUint32(b[12:], p.RateAdv)
	binary.LittleEndian.PutUint16(b[16:], p.SrcPort)
	binary.LittleEndian.PutUint16(b[18:], p.DstPort)
	binary.LittleEndian.PutUint16(b[20:], uint16(from))
	binary.LittleEndian.PutUint32(b[22:], uint32(to))
	ph.h.Write(b[:])
	ph.h.Write(p.Payload)
	ph.Packets++
}

// Sum returns the fold so far.
func (ph *PacketHash) Sum() uint64 { return ph.h.Sum64() }
