// Package packet implements the RMC/H-RMC wire format: the 20-byte packet
// header of Figure 1 of the paper and the eleven packet types of Table 1.
//
// Layout (big-endian, 20 bytes, mirroring the paper's Figure 1):
//
//	 0                   1                   2                   3
//	+---------------------------------+---------------------------------+
//	|           Source Port           |        Destination Port         |
//	+---------------------------------+---------------------------------+
//	|                         Sequence Number                           |
//	+-------------------------------------------------------------------+
//	|                        Rate Advertisement                         |
//	+-------------------------------------------------------------------+
//	|                             Length                                |
//	+---------------------------------+----------------+----------------+
//	|            Checksum             |     Tries      | Flags | Type   |
//	+---------------------------------+----------------+----------------+
//
// The paper's figure draws the URG and FIN flags on their own row but
// states the header is 20 bytes; here the flags occupy the top two bits of
// the final octet and the packet type the low six bits, which preserves
// the 20-byte size.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// HeaderSize is the encoded size of an RMC/H-RMC header in bytes.
const HeaderSize = 20

// Type identifies an RMC/H-RMC packet type (Table 1 of the paper).
type Type uint8

// Packet types. DATA through KEEPALIVE are the nine original RMC types;
// UPDATE and PROBE were added by H-RMC.
const (
	TypeInvalid       Type = iota // zero value; never on the wire
	TypeData                      // sender: data transmissions and retransmissions
	TypeNak                       // receiver: request data retransmission
	TypeNakErr                    // sender: cannot satisfy retransmission request
	TypeJoin                      // receiver: request to join the multicast group
	TypeJoinResponse              // sender: join request accepted
	TypeLeave                     // receiver: leaving the multicast group
	TypeLeaveResponse             // sender: leave request received
	TypeControl                   // receiver: request a reduced transmission rate
	TypeKeepalive                 // sender: keep the connection active when idle
	TypeUpdate                    // H-RMC receiver: periodic state information
	TypeProbe                     // H-RMC sender: solicit state information
	// TypeFec carries XOR parity for the forward-error-correction
	// extension (Section 7, item 4); it is not part of the paper's
	// Table 1. Seq is the first covered sequence number, Length the
	// group size.
	TypeFec
	// TypeHeadNak is the repair-tier (hierarchical recovery) analogue of
	// NAK, sent by a downstream receiver to its repair head instead of
	// the sender: Seq is the first missing sequence number, Length the
	// count of consecutive missing packets, and RateAdv the requester's
	// next expected sequence number. Not part of the paper's Table 1.
	TypeHeadNak
	// TypeAggUpdate is one aggregated UPDATE from a repair head to the
	// sender, summarizing the head's whole subtree: Seq is the minimum
	// next-expected sequence number across the head and its downstream
	// members, Length the downstream member count. Not part of the
	// paper's Table 1.
	TypeAggUpdate
	// TypeHeadDecline is a repair head's explicit refusal: the head
	// cannot serve [Seq, Seq+Length) — the range is outside its retained
	// window and the sender has already released it — so downstream
	// receivers must recover end-to-end instead of re-asking the head.
	// Multicast into the subtree like a repair. Not part of the paper's
	// Table 1.
	TypeHeadDecline
	typeMax
)

var typeNames = [...]string{
	TypeInvalid:       "INVALID",
	TypeData:          "DATA",
	TypeNak:           "NAK",
	TypeNakErr:        "NAK_ERR",
	TypeJoin:          "JOIN",
	TypeJoinResponse:  "JOIN_RESPONSE",
	TypeLeave:         "LEAVE",
	TypeLeaveResponse: "LEAVE_RESPONSE",
	TypeControl:       "CONTROL",
	TypeKeepalive:     "KEEPALIVE",
	TypeUpdate:        "UPDATE",
	TypeProbe:         "PROBE",
	TypeFec:           "FEC",
	TypeHeadNak:       "HEAD_NAK",
	TypeAggUpdate:     "AGG_UPDATE",
	TypeHeadDecline:   "HEAD_DECLINE",
}

// String returns the paper's name for the packet type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a defined wire type.
func (t Type) Valid() bool { return t > TypeInvalid && t < typeMax }

// Types returns the eleven packet types of the paper's Table 1, in
// order. The FEC extension type is excluded: it is this library's
// addition, not part of the paper's wire format.
func Types() []Type {
	ts := make([]Type, 0, TypeProbe)
	for t := TypeData; t <= TypeProbe; t++ {
		ts = append(ts, t)
	}
	return ts
}

// Header flag bits, stored in the top bits of the final header octet.
const (
	FlagURG uint8 = 0x80 // urgent rate request: stop transmission two RTTs
	FlagFIN uint8 = 0x40 // end of the data stream

	flagMask = FlagURG | FlagFIN
	typeMask = ^flagMask & 0xFF
)

// NodeID identifies a host endpoint. In the simulator it is a dense index;
// the UDP transport maps it to and from the peer's unicast address, which
// is all the state the paper's sender keeps per receiver.
type NodeID uint32

// String formats the node as a dotted pseudo-address for logs.
func (n NodeID) String() string {
	return fmt.Sprintf("10.%d.%d.%d", (n>>16)&0xFF, (n>>8)&0xFF, n&0xFF)
}

// Header is the decoded 20-byte RMC/H-RMC packet header.
type Header struct {
	SrcPort uint16
	DstPort uint16
	// Seq is the packet sequence number. Its meaning depends on Type:
	// DATA carries the packet's own sequence number; NAK the first missing
	// sequence number; UPDATE, JOIN, CONTROL and PROBE the next expected
	// (or queried) sequence number; KEEPALIVE the last sequence sent.
	Seq uint32
	// RateAdv is the flow-control rate advertisement in bytes/second:
	// the current transmission rate in sender packets, the suggested
	// reduced rate in CONTROL packets.
	RateAdv uint32
	// Length is the payload length in bytes for DATA packets. For NAK
	// packets it carries the count of consecutive missing packets
	// starting at Seq.
	Length uint32
	// Checksum is the Internet checksum over the header (with this field
	// zero) and payload.
	Checksum uint16
	// Tries counts transmissions of this packet (0 for the first), used
	// for Karn's-algorithm ambiguity detection.
	Tries uint8
	Type  Type
	Flags uint8 // FlagURG | FlagFIN
}

// Packet is a header plus payload. Only DATA packets carry a payload.
type Packet struct {
	Header
	Payload []byte

	// refs is the pool reference count (see pool.go), manipulated with
	// sync/atomic functions. It is a plain int32 rather than an
	// atomic.Int32 so Packet stays trivially copyable (Clone does
	// `q := *p`).
	refs int32
	// borrowed marks a payload that aliases a caller-owned buffer
	// (DecodeBorrow); Put drops such payloads instead of pooling them.
	borrowed bool
}

// Borrowed reports whether the payload aliases a caller-owned buffer
// (see DecodeBorrow) rather than being owned by the packet.
func (p *Packet) Borrowed() bool { return p.borrowed }

// URG reports whether the urgent flag is set.
func (p *Header) URG() bool { return p.Flags&FlagURG != 0 }

// FIN reports whether the end-of-stream flag is set.
func (p *Header) FIN() bool { return p.Flags&FlagFIN != 0 }

// WireSize returns the encoded size of the packet in bytes.
func (p *Packet) WireSize() int { return HeaderSize + len(p.Payload) }

// String renders a compact single-line description for traces.
func (p *Packet) String() string {
	flags := ""
	if p.URG() {
		flags += " URG"
	}
	if p.FIN() {
		flags += " FIN"
	}
	return fmt.Sprintf("%s seq=%d len=%d rate=%d tries=%d%s",
		p.Type, p.Seq, p.Length, p.RateAdv, p.Tries, flags)
}

// Clone returns a deep copy of the packet. The copy owns its payload
// and carries no pool references regardless of p's state.
func (p *Packet) Clone() *Packet {
	q := *p
	q.refs = 0
	q.borrowed = false
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return &q
}

// CloneInto deep-copies p into q, reusing q's payload buffer when its
// capacity suffices. It is the allocation-free companion of Clone for
// pooled packets (packet.Get/Put): q's recycled payload backing array
// absorbs the copy instead of a fresh allocation. q's pool reference
// count is preserved, and the copy owns its payload even when p's was
// borrowed.
func (p *Packet) CloneInto(q *Packet) {
	refs := atomic.LoadInt32(&q.refs)
	var buf []byte
	if !q.borrowed {
		buf = q.Payload[:0]
	}
	*q = *p
	q.borrowed = false
	q.Payload = append(buf, p.Payload...)
	atomic.StoreInt32(&q.refs, refs)
}

// Encoding and decoding errors.
var (
	ErrShortPacket  = errors.New("packet: buffer shorter than header")
	ErrBadChecksum  = errors.New("packet: checksum mismatch")
	ErrBadType      = errors.New("packet: unknown packet type")
	ErrLengthField  = errors.New("packet: length field does not match payload")
	ErrFlagsOverlap = errors.New("packet: flags overlap type bits")
)

// Encode appends the wire encoding of p to dst and returns the extended
// slice. The checksum is computed over the header and payload and stored
// in both the output and p.Checksum.
func (p *Packet) Encode(dst []byte) ([]byte, error) {
	if !p.Type.Valid() {
		return dst, ErrBadType
	}
	if uint8(p.Type)&flagMask != 0 {
		return dst, ErrFlagsOverlap
	}
	if p.Flags&^flagMask != 0 {
		return dst, ErrFlagsOverlap
	}
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	h := dst[off : off+HeaderSize]
	binary.BigEndian.PutUint16(h[0:2], p.SrcPort)
	binary.BigEndian.PutUint16(h[2:4], p.DstPort)
	binary.BigEndian.PutUint32(h[4:8], p.Seq)
	binary.BigEndian.PutUint32(h[8:12], p.RateAdv)
	binary.BigEndian.PutUint32(h[12:16], p.Length)
	// h[16:18] checksum, filled below.
	h[18] = p.Tries
	h[19] = uint8(p.Type) | p.Flags
	dst = append(dst, p.Payload...)
	sum := Checksum(dst[off:])
	binary.BigEndian.PutUint16(dst[off+16:off+18], sum)
	p.Checksum = sum
	return dst, nil
}

// Decode parses one packet from buf, which must contain exactly one
// packet (header plus payload). The payload is copied out of buf.
func Decode(buf []byte) (*Packet, error) {
	var p Packet
	if err := DecodeInto(&p, buf); err != nil {
		return nil, err
	}
	return &p, nil
}

// DecodeInto parses one packet from buf into p, reusing p's payload
// buffer when its capacity suffices — the allocation-free companion of
// Decode for pooled packets on batched receive paths. p's pool
// reference count is preserved; a previously borrowed payload is
// dropped rather than reused (its backing array belongs to someone
// else). On error p is left in an unspecified state (its payload
// buffer is still reusable).
func DecodeInto(p *Packet, buf []byte) error {
	refs := atomic.LoadInt32(&p.refs)
	defer atomic.StoreInt32(&p.refs, refs)
	if len(buf) < HeaderSize {
		return ErrShortPacket
	}
	var pl []byte
	if !p.borrowed {
		pl = p.Payload[:0]
	}
	*p = Packet{}
	p.SrcPort = binary.BigEndian.Uint16(buf[0:2])
	p.DstPort = binary.BigEndian.Uint16(buf[2:4])
	p.Seq = binary.BigEndian.Uint32(buf[4:8])
	p.RateAdv = binary.BigEndian.Uint32(buf[8:12])
	p.Length = binary.BigEndian.Uint32(buf[12:16])
	p.Checksum = binary.BigEndian.Uint16(buf[16:18])
	p.Tries = buf[18]
	p.Type = Type(buf[19] & typeMask)
	p.Flags = buf[19] & flagMask
	p.Payload = pl
	if !p.Type.Valid() {
		return ErrBadType
	}
	if err := verifyChecksum(buf); err != nil {
		return err
	}
	if payload := buf[HeaderSize:]; len(payload) > 0 {
		p.Payload = append(pl, payload...)
	}
	if p.Type == TypeData && p.Length != uint32(len(p.Payload)) {
		return ErrLengthField
	}
	return nil
}

// DecodeBorrow parses one packet from buf into p like DecodeInto, but
// the payload aliases buf[HeaderSize:] instead of being copied — the
// zero-copy decode for receive paths that consume a packet before its
// envelope buffer is reused. The packet is marked borrowed: Put drops
// the aliased payload instead of capturing buf's backing array into
// the pool, and CloneInto/DecodeInto will not write into it.
//
// Ownership: the caller must guarantee buf stays untouched until it is
// done with p (for pooled packets, until the final Put). Mutating buf
// while p is live is observable through p.Payload; mutating it after
// Put is not, because the pool never retains borrowed payloads.
func DecodeBorrow(p *Packet, buf []byte) error {
	refs := atomic.LoadInt32(&p.refs)
	defer atomic.StoreInt32(&p.refs, refs)
	if len(buf) < HeaderSize {
		return ErrShortPacket
	}
	*p = Packet{}
	p.SrcPort = binary.BigEndian.Uint16(buf[0:2])
	p.DstPort = binary.BigEndian.Uint16(buf[2:4])
	p.Seq = binary.BigEndian.Uint32(buf[4:8])
	p.RateAdv = binary.BigEndian.Uint32(buf[8:12])
	p.Length = binary.BigEndian.Uint32(buf[12:16])
	p.Checksum = binary.BigEndian.Uint16(buf[16:18])
	p.Tries = buf[18]
	p.Type = Type(buf[19] & typeMask)
	p.Flags = buf[19] & flagMask
	if !p.Type.Valid() {
		return ErrBadType
	}
	if err := verifyChecksum(buf); err != nil {
		return err
	}
	if payload := buf[HeaderSize:]; len(payload) > 0 {
		p.Payload = payload
		p.borrowed = true
	}
	if p.Type == TypeData && p.Length != uint32(len(p.Payload)) {
		return ErrLengthField
	}
	return nil
}

func verifyChecksum(buf []byte) error {
	if checksumZeroed(buf) != binary.BigEndian.Uint16(buf[16:18]) {
		return ErrBadChecksum
	}
	return nil
}

// Checksum computes the 16-bit Internet checksum (RFC 1071) of b: the
// complement of the ones-complement sum of its big-endian 16-bit words,
// an odd last byte padded with zero. Callers encoding a packet compute
// it with the checksum field still zero, as Encode does.
func Checksum(b []byte) uint16 {
	return ^fold(onesSum(0, b))
}

// checksumZeroed is Checksum over a whole packet with the header's
// checksum field b[16:18] taken as zero, without writing to b: the sum
// of what lies either side of the field, both even-aligned.
func checksumZeroed(b []byte) uint16 {
	return ^fold(onesSum(onesSum(0, b[:16]), b[18:]))
}

// onesSum adds the 16-bit words of b to acc in ones-complement
// arithmetic, eight bytes a step: 2^16 is 1 modulo 0xFFFF, so a 64-bit
// end-around-carry sum folds to the same 16 bits the word-by-word sum
// reaches. Each step's carry rides into the next and the last one is
// added back at the end. b must start on a word boundary of the data
// summed; a short tail is padded with zeros on the right. The four-step
// loop is the same loop unrolled, worth half the time of a full packet.
func onesSum(acc uint64, b []byte) uint64 {
	var c uint64
	for ; len(b) >= 32; b = b[32:] {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[8:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[24:]), c)
	}
	for ; len(b) >= 8; b = b[8:] {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(tail[:]), c)
	}
	acc, c = bits.Add64(acc, c, 0)
	return acc + c
}

// fold reduces a 64-bit ones-complement sum to 16 bits. A non-zero sum
// stays non-zero at every step, so only all-zero input sums to 0 and a
// sum that is a multiple of 0xFFFF comes out as 0xFFFF.
func fold(acc uint64) uint16 {
	acc = acc>>32 + acc&0xFFFFFFFF
	acc = acc>>16 + acc&0xFFFF
	acc = acc>>16 + acc&0xFFFF
	acc = acc>>16 + acc&0xFFFF
	return uint16(acc)
}
