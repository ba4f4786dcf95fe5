package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the wire decoder: it must never
// panic, and anything it accepts must re-encode to a packet that decodes
// to the same header and payload (canonical round trip).
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of each packet type plus mutations.
	for _, ty := range Types() {
		p := &Packet{Header: Header{
			Type: ty, Seq: 12345, RateAdv: 999, SrcPort: 7, DstPort: 9,
		}}
		if ty == TypeData {
			p.Payload = []byte("fuzz seed payload")
			p.Length = uint32(len(p.Payload))
		}
		buf, err := p.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		mut := append([]byte(nil), buf...)
		mut[4] ^= 0x80
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		re, err := p.Encode(nil)
		if err != nil {
			t.Fatalf("accepted packet does not re-encode: %v (%v)", err, p)
		}
		q, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v", err)
		}
		if q.Header != p.Header || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("canonical round trip changed the packet:\n %+v\n %+v", p, q)
		}
	})
}

// FuzzDecodeBorrow checks the alias-decode path against the cloning
// path on arbitrary bytes: both must accept and reject the same
// inputs, an accepted borrow must be bit-exact with the clone while
// genuinely aliasing the envelope buffer, and once a borrowed packet
// is released to the pool, mutating the source buffer must not be
// observable through packets subsequently handed out by the pool.
func FuzzDecodeBorrow(f *testing.F) {
	for _, ty := range Types() {
		p := &Packet{Header: Header{
			Type: ty, Seq: 4242, RateAdv: 17, SrcPort: 3, DstPort: 5,
		}}
		if ty == TypeData {
			p.Payload = []byte("borrowed fuzz payload")
			p.Length = uint32(len(p.Payload))
		}
		buf, err := p.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		mut := append([]byte(nil), buf...)
		mut[0] ^= 0x01
		f.Add(mut)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Borrow-decode from a private copy so post-release mutation
		// below cannot be confused with the fuzzer reusing data.
		src := append([]byte(nil), data...)
		b := Get()
		defer func() {
			if b != nil {
				Put(b)
			}
		}()
		borrowErr := DecodeBorrow(b, src)

		c := Get()
		defer Put(c)
		cloneErr := DecodeInto(c, data)

		if (borrowErr == nil) != (cloneErr == nil) {
			t.Fatalf("accept mismatch: DecodeBorrow=%v DecodeInto=%v", borrowErr, cloneErr)
		}
		if borrowErr != nil {
			return
		}
		if b.Header != c.Header || !bytes.Equal(b.Payload, c.Payload) {
			t.Fatalf("borrow differs from clone:\n %+v\n %+v", b, c)
		}
		if len(b.Payload) > 0 {
			if !b.Borrowed() {
				t.Fatal("non-empty payload decoded without the borrowed mark")
			}
			if &b.Payload[0] != &src[HeaderSize] {
				t.Fatal("borrowed payload does not alias the envelope buffer")
			}
		}

		// Release the borrow, then trash the source buffer. The pool
		// must have dropped the borrowed backing on Put, so no packet
		// it hands out afterwards may alias src: scribbling over a
		// fresh packet's full payload capacity must leave src intact.
		Put(b)
		b = nil
		for i := range src {
			src[i] ^= 0xFF
		}
		want := append([]byte(nil), src...)
		r := Get()
		defer Put(r)
		pl := r.Payload[:cap(r.Payload)]
		for i := range pl {
			pl[i] = 0xA5
		}
		if !bytes.Equal(src, want) {
			t.Fatal("pool handed out a packet whose capacity aliases a released borrow")
		}
	})
}

// refChecksum is the two-bytes-a-step loop Checksum replaced, kept as the
// reference the word-summing one is checked against. A non-negative off
// reads the two bytes there as zero, as verification of a received
// packet does with the header's checksum field.
func refChecksum(b []byte, off int) uint16 {
	var sum uint32
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		hi, lo := b[i], b[i+1]
		if i == off {
			hi, lo = 0, 0
		}
		sum += uint32(hi)<<8 | uint32(lo)
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// FuzzChecksumMatchesReference checks the eight-bytes-a-step checksum
// against the loop it replaced, on arbitrary bytes and on the same bytes
// with one bit flipped (which must also change the sum: the Internet
// checksum cannot miss a single-bit error), then sends the bytes through
// Encode and DecodeBorrow as a payload. The seeds in testdata and below
// hold the shapes a word loop gets wrong: lengths under one step, odd
// lengths, every tail length, sums that are a multiple of 0xFFFF, and a
// flip at every byte offset of a buffer spanning the unrolled step.
func FuzzChecksumMatchesReference(f *testing.F) {
	for n := 0; n <= 41; n++ {
		f.Add(bytes.Repeat([]byte{0xFF}, n), uint16(n))
	}
	ramp := make([]byte, 75)
	for i := range ramp {
		ramp[i] = byte(i*37 + 1)
	}
	for i := range ramp {
		f.Add(ramp, uint16(i*8+i%8))
	}

	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		check := func(b []byte) uint16 {
			got := Checksum(b)
			if want := refChecksum(b, -1); got != want {
				t.Fatalf("Checksum(%x) = %#04x, reference %#04x", b, got, want)
			}
			if len(b) >= HeaderSize {
				if got, want := checksumZeroed(b), refChecksum(b, 16); got != want {
					t.Fatalf("checksumZeroed(%x) = %#04x, reference %#04x", b, got, want)
				}
			}
			return got
		}
		flipped := func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[int(flip/8)%len(mut)] ^= 1 << (flip % 8)
			return mut
		}
		sum := check(data)
		if len(data) > 0 && check(flipped(data)) == sum {
			t.Fatalf("flip %d of %x left the checksum at %#04x", flip, data, sum)
		}

		p := &Packet{Header: Header{Type: TypeData, Seq: uint32(flip), Length: uint32(len(data))}, Payload: data}
		wire, err := p.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := refChecksum(wire, 16); p.Checksum != want {
			t.Fatalf("Encode stored %#04x, reference %#04x", p.Checksum, want)
		}
		var q Packet
		if err := DecodeBorrow(&q, wire); err != nil {
			t.Fatalf("DecodeBorrow of an encoded packet: %v", err)
		}
		if q.Header != p.Header || !bytes.Equal(q.Payload, data) {
			t.Fatalf("round trip changed the packet:\n %+v\n %+v", p, &q)
		}
		if err := DecodeBorrow(&q, flipped(wire)); err == nil {
			t.Fatalf("flip %d of the encoded packet went undetected", flip)
		}
	})
}
