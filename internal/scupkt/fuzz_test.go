package scupkt

import (
	"bytes"
	"testing"
)

// FuzzWireDecode drives Decode with arbitrary byte streams and checks
// the invariants the SCU link layer leans on:
//
//   - Decode never panics and never reads past the buffer;
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
		f.Add(p.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(seeds[1].Encode(nil)[:3])                              // truncated data frame
	f.Add(append(seeds[5].Encode(nil), seeds[7].Encode(nil)...)) // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := Decode(data)

		if n < 0 || n > MaxFrameBytes || n > len(data) {
			t.Fatalf("Decode(%x) consumed %d of %d bytes", data, n, len(data))
		}
		if n == 0 && err != ErrTruncated {
			t.Fatalf("Decode(%x) consumed nothing with err=%v; the stream cannot advance", data, err)
		}

		// Wire.Decode must agree with the slice Decode byte for byte.
		if len(data) <= MaxFrameBytes {
			w := WireOf(data)
			wp, wn, werr := w.Decode()
			if wp != p || wn != n || werr != err {
				t.Fatalf("Wire.Decode(%x) = (%+v, %d, %v), Decode = (%+v, %d, %v)",
					data, wp, wn, werr, p, n, err)
			}
		}

		if err != nil {
			return
		}

		// Round trip: re-encoding the decoded packet reproduces the
		// consumed bytes exactly, and decoding that reproduces the packet.
		w := p.Wire()
		if w.Len() != n || w.Len() != p.FrameBytes() {
			t.Fatalf("packet %+v: decoded %d bytes but re-encodes to %d (FrameBytes %d)",
				p, n, w.Len(), p.FrameBytes())
		}
		if !bytes.Equal(w.Bytes(), data[:n]) {
			t.Fatalf("packet %+v: round trip %x != consumed %x", p, w.Bytes(), data[:n])
		}
		p2, n2, err2 := Decode(w.Bytes())
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
		frame := WireOf(data[:n])
		for bit := 0; bit < 8; bit++ {
			frame.FlipBit(bit)
			fp, _, ferr := frame.Decode()
			if ferr == nil {
				t.Fatalf("packet %+v: header bit %d flipped, decoded cleanly to %+v", p, bit, fp)
			}
			frame.FlipBit(bit) // restore
		}
	})
}
