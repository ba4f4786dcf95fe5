package netsim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/app"
	"repro/internal/packet"
	"repro/internal/receiver"
	"repro/internal/repair"
	"repro/internal/sender"
)

// OnNew installs (or, with nil, removes) the hook that sees every
// Network New creates.
func OnNew(f func(*Network)) { newHook = f }

// Seams reaches a Network's test hooks: wakeDriven makes
// the driver run its machines only when their NextWake is due, emitted
// taps every packet a machine emits.
func (s *seams) Seams(wakeDriven bool, emitted func(from packet.NodeID, p *packet.Packet, multicast bool, to packet.NodeID)) {
	s.wakeDriven, s.emitted = wakeDriven, emitted
}

// OnShared installs the hook that sees each packet copy the network
// shares among the hosts it reaches.
func (s *seams) OnShared(f func(p *packet.Packet)) { s.shared = f }

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

// Tree is a repair tier on the Network, for the tests: Heads
// characteristic groups named "t0", "t1", …, each one repair head and
// Leaves leaves behind one router, every group with Group's delay and
// loss. Heads come first (head i is NodeID i+1), then each group's
// leaves in turn. Every host rebuilds cold on a restart, anchoring
// mid-stream (receiver.Config.JoinInProgress).
type Tree struct {
	Heads, Leaves int
	// Flat builds every host as a plain receiver reporting to the
	// sender: the baseline the repair tier's feedback is measured
	// against.
	Flat bool
	// Size is the stream length in bytes; Buf the per-socket buffer.
	Size int64
	Buf  int
	// The network is DefaultConfig's at 100 Mbps with this seed and
	// fault plan.
	Seed   uint64
	Faults *FaultPlan
	Group  Group
	// FecK enables proactive parity on every host; it must match the
	// sender's FECGroupSize.
	FecK int
	// Head is every head's repair config; Leaf, when set, tunes every
	// leaf's receiver config (its failover knobs).
	Head repair.Config
	Leaf func(*receiver.Config)
}

// Build makes the network: the sender with a memory source of Size
// bytes, then the heads, then the leaves.
func (t Tree) Build(scfg sender.Config) *Network {
	cfg := DefaultConfig(Rate100Mbps, t.Seed)
	cfg.Faults = t.Faults
	n := New(cfg)
	n.AddSender(sender.New(scfg), app.NewMemorySource(t.Size))
	for i := 0; i < t.Heads; i++ {
		rcfg := t.config(n)
		if !t.Flat {
			hc := t.Head
			rcfg.Head = &hc
		}
		t.add(n, rcfg, i)
	}
	for i := 0; i < t.Heads; i++ {
		for j := 0; j < t.Leaves; j++ {
			t.add(n, t.leaf(n, i), i)
		}
	}
	return n
}

// AddLeaf joins a fresh leaf to group i mid-run (the flash crowd): its
// machine anchors to the stream in progress. Call it from a scheduled
// event.
func (t Tree) AddLeaf(n *Network, i int) *ReceiverHost {
	rcfg := t.leaf(n, i)
	rcfg.JoinInProgress = true
	return t.add(n, rcfg, i)
}

func (t Tree) config(n *Network) receiver.Config {
	return receiver.Config{LocalAddr: packet.NodeID(len(n.Receivers()) + 1), RcvBuf: t.Buf, Mode: receiver.HRMC, FECGroupSize: t.FecK}
}

func (t Tree) leaf(n *Network, i int) receiver.Config {
	rcfg := t.config(n)
	if !t.Flat {
		rcfg.RepairHead = packet.NodeID(i + 1)
		if t.Leaf != nil {
			t.Leaf(&rcfg)
		}
	}
	return rcfg
}

func (t Tree) add(n *Network, rcfg receiver.Config, i int) *ReceiverHost {
	g := t.Group
	g.Name = fmt.Sprintf("t%d", i)
	r := n.AddReceiver(receiver.New(rcfg), g, nil)
	rcfg.JoinInProgress = true
	r.Rebuild = func() *receiver.Receiver { return receiver.New(rcfg) }
	return r
}
