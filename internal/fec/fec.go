// Package fec implements the forward-error-correction extension the
// paper lists as future work (Section 7, item 4: "incorporation of
// forward error correction, particularly for wireless environments").
//
// The scheme is single-erasure XOR parity: for every group of K
// consecutive data packets the sender multicasts one best-effort parity
// packet whose payload is the XOR of the group's length-prefixed
// payloads. A receiver missing exactly one packet of the group rebuilds
// it locally — no NAK, no retransmission round trip. Parity packets are
// never retransmitted and never occupy window space; losing one merely
// falls back to the NAK path.
//
// Wire form: a PROBE-sized extension type (packet.TypeFec). Seq is the
// first sequence number of the covered group; Length is the group size
// K; the payload is the XOR of [len16be ‖ flags8 ‖ payload ‖ zero
// padding] over the group, sized to fit the largest member plus the
// prefix. The flags byte rides inside the protected block so that a
// rebuilt packet restores its header flags too — losing the FIN packet
// and rebuilding it without FlagFIN would deliver every byte yet never
// signal end-of-stream.
package fec

import (
	"encoding/binary"

	"repro/internal/packet"
	"repro/internal/seqspace"
)

// MaxGroup bounds the group size (fits comfortably in a receive
// window's worth of state).
const MaxGroup = 64

// lenPrefix is the XOR-protected prefix in bytes: a 16-bit payload
// length followed by the header flags byte.
const lenPrefix = 3

// Encoder accumulates transmitted packets and produces parity packets.
type Encoder struct {
	k        int
	base     seqspace.Seq
	count    int
	acc      []byte // XOR accumulator, length = lenPrefix + longest payload
	restarts int64
}

// NewEncoder returns an encoder emitting one parity packet per k data
// packets; k is clamped to [2, MaxGroup].
func NewEncoder(k int) *Encoder {
	if k < 2 {
		k = 2
	}
	if k > MaxGroup {
		k = MaxGroup
	}
	return &Encoder{k: k}
}

// xorInto accumulates [len16 ‖ flags8 ‖ payload] into acc, growing it
// as needed.
func xorInto(acc []byte, flags uint8, payload []byte) []byte {
	need := lenPrefix + len(payload)
	for len(acc) < need {
		acc = append(acc, 0)
	}
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(payload)))
	acc[0] ^= l[0]
	acc[1] ^= l[1]
	acc[2] ^= flags
	for i, b := range payload {
		acc[lenPrefix+i] ^= b
	}
	return acc
}

// Add feeds one first-transmission data packet and returns a parity
// packet when the group completes, else nil. Retransmissions must not
// be fed: the group covers each sequence number once. A discontinuous
// sequence number (seq != base+count) abandons the open group and
// starts a fresh one at seq — emitting parity over a gapped group
// would silently corrupt it, because the receiver reconstructs members
// as base..base+K-1.
func (e *Encoder) Add(seq seqspace.Seq, flags uint8, payload []byte) *packet.Packet {
	if e.count > 0 && seq != e.base+seqspace.Seq(e.count) {
		e.count = 0
		e.restarts++
	}
	if e.count == 0 {
		e.base = seq
		e.acc = e.acc[:0]
	}
	e.acc = xorInto(e.acc, flags, payload)
	e.count++
	if e.count < e.k {
		return nil
	}
	return e.parity()
}

// parity closes the open group: its parity packet, Length the member
// count, drawn from the shared packet pool with one reference the caller
// owns and must eventually Put (directly or through a path that does).
func (e *Encoder) parity() *packet.Packet {
	p := packet.GetBuf(len(e.acc))
	p.Header = packet.Header{
		Type:   packet.TypeFec,
		Seq:    uint32(e.base),
		Length: uint32(e.count),
	}
	p.Payload = append(p.Payload[:0], e.acc...)
	e.count = 0
	return p
}

// Restarts returns how many open groups were abandoned because Add saw
// a discontinuous sequence number. Monotonic.
func (e *Encoder) Restarts() int64 { return e.restarts }

// Pending returns how many packets the open (incomplete) group holds.
func (e *Encoder) Pending() int { return e.count }

// Flush closes the open group early and returns its parity packet with
// Length set to the actual member count, or nil when fewer than two
// packets are pending (single-member parity is just a duplicate, and the
// decoder rejects k < 2 anyway — the lone packet stays pending so a
// later Add can still extend the group). Senders call this when the
// transmit pipeline goes idle mid-group — a stall, a rate-control pause,
// or the stream tail — so that already-sent packets do not sit
// unprotected past the receivers' NAK-defer window.
func (e *Encoder) Flush() *packet.Packet {
	if e.count < 2 {
		return nil
	}
	return e.parity()
}

// PayloadLookup resolves a stored data packet's payload and header
// flags by sequence number; ok is false when the packet is unavailable.
type PayloadLookup func(seq seqspace.Seq) (payload []byte, flags uint8, ok bool)

// Decoder rebuilds missing group members from parity packets. It holds
// a reusable XOR scratch buffer so steady-state recovery allocates
// nothing beyond the pooled rebuilt packet. The zero value is ready to
// use. Not safe for concurrent use.
type Decoder struct {
	acc []byte // XOR scratch, reused across Recover calls
}

// Recover attempts single-erasure reconstruction from a parity packet.
// lookup must resolve every present member of the covered group. It
// returns the rebuilt data packet and true when exactly one member is
// missing and reconstruction succeeds.
//
// The rebuilt packet is drawn from the shared packet pool with one
// reference owned by the caller.
func (d *Decoder) Recover(parity *packet.Packet, lookup PayloadLookup) (*packet.Packet, bool) {
	if parity.Type != packet.TypeFec {
		return nil, false
	}
	k := int(parity.Length)
	if k < 2 || k > MaxGroup || len(parity.Payload) < lenPrefix {
		return nil, false
	}
	base := seqspace.Seq(parity.Seq)
	acc := append(d.acc[:0], parity.Payload...)
	missing := seqspace.Seq(0)
	nMissing := 0
	for i := 0; i < k; i++ {
		seq := base + seqspace.Seq(i)
		payload, flags, ok := lookup(seq)
		if !ok {
			missing = seq
			nMissing++
			if nMissing > 1 {
				d.acc = acc
				return nil, false
			}
			continue
		}
		if lenPrefix+len(payload) > len(acc) {
			// A member is larger than the parity coverage: corrupt or
			// mismatched group; bail out.
			d.acc = acc
			return nil, false
		}
		acc = xorInto(acc, flags, payload)
	}
	d.acc = acc
	if nMissing != 1 {
		return nil, false
	}
	n := int(binary.BigEndian.Uint16(acc[:2]))
	flags := acc[2]
	if lenPrefix+n > len(acc) {
		return nil, false
	}
	if flags&^(packet.FlagURG|packet.FlagFIN) != 0 {
		// The residual flags byte can only hold legal flag bits; any
		// others mean the group was inconsistent.
		return nil, false
	}
	// Everything beyond the rebuilt payload must have XORed to zero;
	// nonzero residue means the group was inconsistent.
	for _, b := range acc[lenPrefix+n:] {
		if b != 0 {
			return nil, false
		}
	}
	rebuilt := packet.GetBuf(n)
	rebuilt.Header = packet.Header{
		Type:   packet.TypeData,
		Seq:    uint32(missing),
		Length: uint32(n),
		Flags:  flags,
	}
	rebuilt.Payload = append(rebuilt.Payload[:0], acc[lenPrefix:lenPrefix+n]...)
	return rebuilt, true
}
