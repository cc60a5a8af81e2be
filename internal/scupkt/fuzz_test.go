package scupkt

import (
	"bytes"
	"testing"
)

// FuzzWireDecode drives Wire.Decode with arbitrary frames and checks
// the invariants the SCU link layer leans on:
//
//   - the two-word decoder agrees with the byte-slice reference
//     (refDecode) as (packet, length, error) on every frame of at most
//     MaxFrameBytes, and again after a single-bit flip at every bit
//     position of the frame;
//   - the consumed-byte count keeps the stream resynchronizable
//     (0 only with ErrTruncated, otherwise 1..MaxFrameBytes);
//   - whatever decodes cleanly survives a Packet -> Wire -> Decode
//     round trip bit-identically (re-encode/decode is the identity on
//     the valid subset of the wire format);
//   - single-bit header corruption is always detected, never
//     misinterpreted as another valid packet — the property the
//     distance-3 type code exists to provide.
func FuzzWireDecode(f *testing.F) {
	// Seed with one frame of each kind, plus truncations and junk.
	seeds := []Packet{
		{Kind: Idle},
		{Kind: Data0, Payload: 0},
		{Kind: Data1, Payload: 0xDEADBEEFCAFEF00D},
		{Kind: Data2, Payload: ^uint64(0)},
		{Kind: Data3, Payload: 1},
		{Kind: Supervisor, Payload: 0x0102030405060708},
		{Kind: PartIRQ, Payload: 0x5A},
		{Kind: Ack, Payload: uint64(AckNak | 2)},
		{Kind: Ack, Payload: uint64(AckSup)},
	}
	for _, p := range seeds {
		f.Add(refEncode(p, nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(refEncode(seeds[1], nil)[:3])                  // truncated data frame
	f.Add(refEncode(seeds[7], refEncode(seeds[5], nil))) // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxFrameBytes {
			data = data[:MaxFrameBytes] // no frame is longer; Decode reads only the front
		}
		w := WireOf(data)
		if got := w.Bytes(); !bytes.Equal(got, data) {
			t.Fatalf("WireOf(%x).Bytes() = %x", data, got)
		}
		p, n, err := w.Decode()
		if rp, rn, rerr := refDecode(data); p != rp || n != rn || err != rerr {
			t.Fatalf("Wire.Decode(%x) = (%+v, %d, %v), reference (%+v, %d, %v)", data, p, n, err, rp, rn, rerr)
		}
		for bit := 0; bit < 8*len(data); bit++ {
			flipped := w
			flipped.FlipBit(bit)
			ref := append([]byte(nil), data...)
			ref[bit/8] ^= 1 << (bit % 8)
			if got := flipped.Bytes(); !bytes.Equal(got, ref) {
				t.Fatalf("FlipBit(%d) of %x = %x, want %x", bit, data, got, ref)
			}
			fp, fn, ferr := flipped.Decode()
			if rp, rn, rerr := refDecode(ref); fp != rp || fn != rn || ferr != rerr {
				t.Fatalf("Wire.Decode(%x) = (%+v, %d, %v), reference (%+v, %d, %v)", ref, fp, fn, ferr, rp, rn, rerr)
			}
		}

		if n < 0 || n > MaxFrameBytes || n > len(data) {
			t.Fatalf("Decode(%x) consumed %d of %d bytes", data, n, len(data))
		}
		if n == 0 && err != ErrTruncated {
			t.Fatalf("Decode(%x) consumed nothing with err=%v; the stream cannot advance", data, err)
		}
		if err != nil {
			return
		}

		// Round trip: re-encoding the decoded packet reproduces the
		// consumed bytes exactly, and decoding that reproduces the packet.
		rw := p.Wire()
		if rw.Len() != n || rw.Len() != p.FrameBytes() {
			t.Fatalf("packet %+v: decoded %d bytes but re-encodes to %d (FrameBytes %d)",
				p, n, rw.Len(), p.FrameBytes())
		}
		if !bytes.Equal(rw.Bytes(), data[:n]) {
			t.Fatalf("packet %+v: round trip %x != consumed %x", p, rw.Bytes(), data[:n])
		}
		p2, n2, err2 := rw.Decode()
		if err2 != nil || p2 != p || n2 != n {
			t.Fatalf("re-decode of %+v: got (%+v, %d, %v)", p, p2, n2, err2)
		}

		// PartIRQ and Ack carry 8-bit payloads by construction.
		if (p.Kind == PartIRQ || p.Kind == Ack) && p.Payload > 0xFF {
			t.Fatalf("%s payload %#x exceeds 8 bits", p.Kind, p.Payload)
		}

		// Single-bit header corruption must be detected, never
		// misinterpreted. Flipping any type-code bit (header bits 7..2)
		// breaks the distance-3 codeword; flipping a parity bit (1..0)
		// mismatches the payload parity — including on Idle frames,
		// whose parity bits must be zero.
		for bit := 0; bit < 8; bit++ {
			frame := rw
			frame.FlipBit(bit)
			if fp, _, ferr := frame.Decode(); ferr == nil {
				t.Fatalf("packet %+v: header bit %d flipped, decoded cleanly to %+v", p, bit, fp)
			}
		}
	})
}
