package scupkt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func allKinds() []Kind {
	return []Kind{Idle, Data0, Data1, Data2, Data3, Supervisor, PartIRQ, Ack}
}

// refEncode is the byte-at-a-time encoder the two-word codec replaced,
// kept as its oracle: the header byte, then the payload most
// significant byte first, appended to dst.
func refEncode(p Packet, dst []byte) []byte {
	switch p.Kind {
	case Idle:
		return append(dst, encodeKind(p.Kind)<<2)
	case PartIRQ, Ack:
		return append(dst, encodeKind(p.Kind)<<2|parityBits(p.Payload&0xFF), byte(p.Payload))
	default: // Data0..3, Supervisor
		dst = append(dst, encodeKind(p.Kind)<<2|parityBits(p.Payload))
		for shift := 56; shift >= 0; shift -= 8 {
			dst = append(dst, byte(p.Payload>>shift))
		}
		return dst
	}
}

// refDecode is the byte-slice decoder the two-word codec replaced, kept
// as its oracle: one packet from the front of buf, the bytes it spans,
// and the error, with Wire.Decode's contract.
func refDecode(buf []byte) (Packet, int, error) {
	if len(buf) < HeaderBytes {
		return Packet{}, 0, ErrTruncated
	}
	hdr := buf[0]
	kind, ok := decodeKind(hdr >> 2)
	if !ok {
		return Packet{}, 1, ErrHeaderCorrupt
	}
	par := hdr & 3
	p := Packet{Kind: kind}
	n := HeaderBytes
	switch kind {
	case Idle:
		if par != 0 {
			return p, n, ErrParity
		}
	case PartIRQ, Ack:
		if len(buf) < HeaderBytes+1 {
			return Packet{}, 0, ErrTruncated
		}
		p.Payload = uint64(buf[HeaderBytes])
		n = HeaderBytes + 1
		if parityBits(p.Payload) != par {
			return p, n, ErrParity
		}
	default: // Data0..3, Supervisor
		if len(buf) < DataFrame {
			return Packet{}, 0, ErrTruncated
		}
		var w uint64
		for i := 0; i < WordBytes; i++ {
			w = w<<8 | uint64(buf[HeaderBytes+i])
		}
		p.Payload = w
		n = DataFrame
		if parityBits(w) != par {
			return p, n, ErrParity
		}
	}
	return p, n, nil
}

func TestKindCodewordsDistance(t *testing.T) {
	// Every pair of type codewords must be at Hamming distance >= 3, so a
	// single bit flip cannot convert one valid type into another (§2.2).
	ks := allKinds()
	for i, a := range ks {
		for _, b := range ks[i+1:] {
			d := popcount6(encodeKind(a) ^ encodeKind(b))
			if d < 3 {
				t.Errorf("kinds %v and %v at distance %d", a, b, d)
			}
		}
	}
}

func popcount6(x uint8) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range allKinds() {
		got, ok := decodeKind(encodeKind(k))
		if !ok || got != k {
			t.Errorf("round trip of %v = %v, %v", k, got, ok)
		}
	}
}

func TestDataKindSeq(t *testing.T) {
	for seq := 0; seq < 2*SeqMod; seq++ {
		k := DataKind(seq)
		got, ok := k.DataSeq()
		if !ok || got != seq%SeqMod {
			t.Errorf("DataKind(%d).DataSeq() = %d, %v", seq, got, ok)
		}
	}
	for _, k := range []Kind{Idle, Supervisor, PartIRQ, Ack} {
		if _, ok := k.DataSeq(); ok {
			t.Errorf("%v reported as data", k)
		}
	}
}

func TestWindowFitsSeqSpace(t *testing.T) {
	if WindowSize >= SeqMod {
		t.Fatalf("window %d must be < sequence space %d for unambiguous ARQ", WindowSize, SeqMod)
	}
	if WindowSize != 3 {
		t.Fatalf("window = %d; the paper specifies three in the air", WindowSize)
	}
}

func TestSingleBitHeaderFlipDetected(t *testing.T) {
	// Flipping any single bit of any valid codeword must fail decoding,
	// never silently decode as a different type.
	for _, k := range allKinds() {
		code := encodeKind(k)
		for bit := 0; bit < 6; bit++ {
			flipped := code ^ (1 << bit)
			if got, ok := decodeKind(flipped); ok {
				t.Errorf("kind %v with bit %d flipped decoded as %v", k, bit, got)
			}
		}
	}
}

// TestWireMatchesReferenceEncode holds the two-word encoder to the byte
// loop: every Kind value (the eight kinds and the out-of-range ones,
// which encode as data), payloads 0, all ones and seeded random words.
func TestWireMatchesReferenceEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := []uint64{0, ^uint64(0), 0x0123456789ABCDEF}
	for i := 0; i < 64; i++ {
		payloads = append(payloads, rng.Uint64())
	}
	for k := 0; k < 256; k++ {
		for _, pl := range payloads {
			p := Packet{Kind: Kind(k), Payload: pl}
			w := p.Wire()
			want := refEncode(p, nil)
			if got := w.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%+v: Wire() = %x, reference %x", p, got, want)
			}
			if p.Kind < numKinds && (w.Len() != p.FrameBytes() || w.Bits() != p.FrameBits()) {
				t.Fatalf("%+v: %d bytes / %d bits, FrameBytes says %d", p, w.Len(), w.Bits(), p.FrameBytes())
			}
		}
	}
}

func TestEncodeDecodePackets(t *testing.T) {
	cases := []Packet{
		{Kind: Idle},
		{Kind: Data0, Payload: 0xDEADBEEFCAFEF00D},
		{Kind: Data1, Payload: 0},
		{Kind: Data2, Payload: ^uint64(0)},
		{Kind: Data3, Payload: 1},
		{Kind: Supervisor, Payload: 42},
		{Kind: PartIRQ, Payload: 0xA5},
		{Kind: Ack, Payload: 0},
		{Kind: Ack, Payload: uint64(AckNak)},
		{Kind: Ack, Payload: uint64(AckSup)},
	}
	for _, want := range cases {
		w := want.Wire()
		got, n, err := w.Decode()
		if err != nil {
			t.Errorf("%v: decode error %v", want, err)
			continue
		}
		if n != w.Len() {
			t.Errorf("%v: consumed %d of %d", want, n, w.Len())
		}
		if got != want {
			t.Errorf("decode = %+v, want %+v", got, want)
		}
	}
}

func TestDecodeStream(t *testing.T) {
	// Packets back to back decode in order: a frame reads only its own
	// bytes off the front of whatever follows it.
	packets := []Packet{
		{Kind: Data0, Payload: 1},
		{Kind: Ack, Payload: 0},
		{Kind: Supervisor, Payload: 99},
		{Kind: PartIRQ, Payload: 7},
		{Kind: Idle},
		{Kind: Data3, Payload: 1 << 63},
	}
	var buf []byte
	for _, p := range packets {
		buf = refEncode(p, buf)
	}
	for i, want := range packets {
		w := WireOf(buf[:min(len(buf), MaxFrameBytes)])
		got, n, err := w.Decode()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("packet %d = %+v, want %+v", i, got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDataPayloadBitFlipCaught(t *testing.T) {
	// A single bit flip anywhere in the payload trips one of the two
	// parity bits.
	base := Packet{Kind: Data0, Payload: 0x0123456789ABCDEF}.Wire()
	for bit := 8; bit < 8*DataFrame; bit++ {
		w := base
		w.FlipBit(bit)
		if _, _, err := w.Decode(); !errors.Is(err, ErrParity) {
			t.Fatalf("frame bit %d flip: err = %v, want ErrParity", bit, err)
		}
	}
}

func TestHeaderBitFlipCaught(t *testing.T) {
	base := Packet{Kind: Data2, Payload: 123456}.Wire()
	for bit := 0; bit < 8; bit++ {
		want := ErrHeaderCorrupt // type-code bits 7..2
		if bit < 2 {
			want = ErrParity // parity bits
		}
		w := base
		w.FlipBit(bit)
		if _, _, err := w.Decode(); !errors.Is(err, want) {
			t.Fatalf("header bit %d flip: err = %v, want %v", bit, err, want)
		}
	}
}

func TestAnySingleBitFlipDetectedQuick(t *testing.T) {
	// Property: for random data packets and any single-bit flip of the
	// frame, Decode returns an error (never a silently wrong packet).
	f := func(payload uint64, seq uint8, bitSel uint16) bool {
		w := Packet{Kind: DataKind(int(seq)), Payload: payload}.Wire()
		w.FlipBit(int(bitSel))
		_, _, err := w.Decode()
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := refEncode(Packet{Kind: Data1, Payload: 77}, nil)
	for n := 0; n < len(buf); n++ {
		w := WireOf(buf[:n])
		if _, _, err := w.Decode(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated to %d: err = %v", n, err)
		}
	}
}

// TestWireIsTwoWords pins the frame's size: two machine words, so a
// frame is copied by a pair of word moves.
func TestWireIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Wire{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Wire{}) = %d, want 16", got)
	}
}

func TestCodecAllocFree(t *testing.T) {
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		w := Packet{Kind: Data2, Payload: sink + 0x9E3779B97F4A7C15}.Wire()
		p, n, _ := w.Decode()
		sink += p.Payload + uint64(n)
	})
	if allocs != 0 {
		t.Fatalf("encode + decode allocates %v times", allocs)
	}
}

func TestChecksumAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tx, rx Checksum
	for i := 0; i < 1000; i++ {
		w := rng.Uint64()
		tx.Add(w)
		rx.Add(w)
	}
	if !tx.Equal(&rx) {
		t.Fatal("checksums of identical streams differ")
	}
	if tx.Count() != 1000 {
		t.Fatalf("count = %d", tx.Count())
	}
}

func TestChecksumDetectsDifferences(t *testing.T) {
	// Order sensitivity and value sensitivity.
	var a, b Checksum
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(1)
	if a.Equal(&b) {
		t.Fatal("checksum insensitive to order")
	}
	var c, d Checksum
	c.Add(5)
	d.Add(6)
	if c.Equal(&d) {
		t.Fatal("checksum insensitive to value")
	}
	var e, f Checksum
	e.Add(0)
	if e.Equal(&f) {
		t.Fatal("checksum insensitive to count of zero words")
	}
}

func TestChecksumQuick(t *testing.T) {
	// Property: flipping any single word of a random stream changes the sum.
	f := func(seed int64, idxSel uint8, flip uint64) bool {
		if flip == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		n := 16
		words := make([]uint64, n)
		for i := range words {
			words[i] = rng.Uint64()
		}
		var a, b Checksum
		idx := int(idxSel) % n
		for i, w := range words {
			a.Add(w)
			if i == idx {
				w ^= flip
			}
			b.Add(w)
		}
		return !a.Equal(&b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameSizes(t *testing.T) {
	// The 72-bit data frame is what produces the paper's 1.3 GB/s
	// aggregate: 24 links x 500 Mbit/s x (64/72) = 10.67 Gbit/s = 1.33 GB/s.
	if (Packet{Kind: Data0}).FrameBits() != 72 {
		t.Fatalf("data frame = %d bits", (Packet{Kind: Data0}).FrameBits())
	}
	agg := 24.0 * 500e6 * 64.0 / 72.0 / 8.0 / 1e9 // GB/s
	if agg < 1.25 || agg > 1.40 {
		t.Fatalf("aggregate payload bandwidth %.3f GB/s, want ~1.33", agg)
	}
}
