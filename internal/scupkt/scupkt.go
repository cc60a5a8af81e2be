// Package scupkt defines the wire format of the QCDOC Serial
// Communications Unit (§2.2): the three multiplexed packet classes
// (normal 64-bit data transfers, supervisor words, and 8-bit partition
// interrupts), acknowledgements, and the 8-bit packet header whose type
// codes are chosen so that a single bit error cannot cause a packet to be
// misinterpreted, plus the two data-parity bits the header carries and
// the per-link-end checksums compared at the end of a calculation.
//
// Normal data words carry a two-bit sequence number (encoded as four
// distinct Data type codes) supporting the "three in the air" window:
// up to three words may be unacknowledged, so sequence numbers modulo
// four disambiguate every in-flight or retransmitted word.
package scupkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Kind is the class of a packet on an SCU link. The eight kinds exactly
// fill the 3-bit payload of the [6,3,3] header code.
type Kind uint8

const (
	// Idle frames are exchanged by trained HSSL controllers when no data
	// is being transmitted.
	Idle Kind = iota
	// Data0..Data3 are normal transfers of one 64-bit word each, part of
	// a DMA-driven block transfer; the kind encodes the word's sequence
	// number modulo 4.
	Data0
	Data1
	Data2
	Data3
	// Supervisor is a single 64-bit word delivered to a register in the
	// neighbour's SCU, raising a CPU interrupt there. Supervisor packets
	// take priority over normal data and use stop-and-wait
	// acknowledgement.
	Supervisor
	// PartIRQ is an 8-bit partition-interrupt packet, forwarded by
	// receivers to all their neighbours until the whole partition has
	// seen it.
	PartIRQ
	// Ack carries link-level flow control: a plain ack is one window
	// credit; flag bits mark it as a Nak (rewind request) or a
	// supervisor ack.
	Ack

	numKinds
)

// Layout of the payload byte of an Ack packet: bits 0-1 carry the
// sequence number of the highest in-order word accepted (a cumulative
// acknowledgement), and the flag bits modify the meaning.
const (
	// AckSeqMask extracts the cumulative acknowledged sequence number.
	AckSeqMask uint8 = 0x03
	// AckNak marks a negative acknowledgement: a parity or header error
	// was detected and the sender must rewind and resend every
	// unacknowledged word ("a single bit error causes an automatic
	// resend in hardware").
	AckNak uint8 = 1 << 2
	// AckSup acknowledges a Supervisor packet rather than a data word;
	// the sequence bits are ignored.
	AckSup uint8 = 1 << 3
)

// SeqMod is the data sequence space; the window must stay strictly
// smaller.
const SeqMod = 4

// WindowSize is the paper's "three in the air" protocol: up to three
// 64-bit words may be sent before an acknowledgement is required, which
// amortizes the round-trip handshake and sustains full link bandwidth.
const WindowSize = 3

// DataKind returns the Data kind carrying sequence number seq mod 4.
func DataKind(seq int) Kind { return Data0 + Kind(seq%SeqMod) }

// DataSeq reports the sequence number of a Data kind, or false.
func (k Kind) DataSeq() (int, bool) {
	if k >= Data0 && k <= Data3 {
		return int(k - Data0), true
	}
	return 0, false
}

func (k Kind) String() string {
	switch {
	case k == Idle:
		return "idle"
	case k >= Data0 && k <= Data3:
		return fmt.Sprintf("data%d", k-Data0)
	case k == Supervisor:
		return "supervisor"
	case k == PartIRQ:
		return "partirq"
	case k == Ack:
		return "ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// The packet header is one byte: a six-bit type codeword plus two parity
// bits covering the data payload. Type codes come from a shortened
// [6,3,3] Hamming code, so all codewords are at pairwise Hamming distance
// >= 3 and a single flipped header bit can never turn one valid type into
// another: it is detected and answered with a Nak instead.
//
// Layout: bit 7..2 = type codeword, bit 1 = parity of payload bits 63..32,
// bit 0 = parity of payload bits 31..0.

// kindCodes[k] is the 6-bit codeword of Kind k (3 data bits):
// c = [d1 d2 d3 | d1^d2 d1^d3 d2^d3].
var kindCodes = [8]uint8{0x00, 0x0B, 0x15, 0x1E, 0x26, 0x2D, 0x33, 0x38}

// encodeKind maps a Kind to its codeword; only its low 3 bits count.
func encodeKind(k Kind) uint8 { return kindCodes[k&7] }

// decodeKind inverts encodeKind, requiring an exact codeword match.
func decodeKind(code uint8) (Kind, bool) {
	d1 := code >> 5 & 1
	d2 := code >> 4 & 1
	d3 := code >> 3 & 1
	k := Kind(d1<<2 | d2<<1 | d3)
	if encodeKind(k) != code || k >= numKinds {
		return 0, false
	}
	return k, true
}

// parityBits computes the two data-parity bits for a 64-bit payload:
// bit 1 covers the high word, bit 0 the low word.
func parityBits(payload uint64) uint8 {
	hi := uint8(bits.OnesCount32(uint32(payload>>32)) & 1)
	lo := uint8(bits.OnesCount32(uint32(payload)) & 1)
	return hi<<1 | lo
}

// Packet is one SCU packet as exchanged over an HSSL link.
type Packet struct {
	Kind    Kind
	Payload uint64 // 64-bit word for Data/Supervisor; low 8 bits for PartIRQ and Ack flags
}

// Frame sizes on the bit-serial wire, in bytes (header + payload). A
// 64-bit data word travels in a 9-byte (72-bit) frame; at 500 Mbit/s per
// link this gives the paper's aggregate payload bandwidth of about
// 1.3 GB/s over 24 links (24 x 500 Mbit/s x 64/72 / 8 = 1.33 GB/s).
const (
	HeaderBytes  = 1
	WordBytes    = 8
	DataFrame    = HeaderBytes + WordBytes // data and supervisor packets
	PartIRQFrame = HeaderBytes + 1
	AckFrame     = HeaderBytes + 1 // ack/nak carry a 1-byte flag field
	IdleFrame    = HeaderBytes
)

// MaxFrameBytes bounds every frame the SCU can put on a wire: the
// paper's 74-bit wire frame rounded up to whole bytes. Because no frame
// is ever larger, a frame fits a fixed-size value (Wire) and the whole
// simulated data path — encode, serialize, deliver, decode — can run
// without dynamic allocation, matching hardware that has none.
const MaxFrameBytes = 10

// Wire is one frame as it exists on the bit-serial link, held in two
// machine words: frame byte i is bits 8i..8i+7 of lo (bytes 0-7) or of
// hi (bytes 8-9), and every bit past the frame's length is zero. A Wire
// is passed **by value** through the transmit and receive pipelines.
// Value semantics are the memory model of the hardware registers it
// stands in for — handing a Wire to another layer copies the bits, so
// no layer can alias or retain another's buffer, and the steady-state
// frame path allocates nothing.
type Wire struct {
	lo uint64
	hi uint16
	n  uint8
}

// WireOf builds a frame from raw bytes (tests and fault rigs). It
// panics if b exceeds MaxFrameBytes, which no legal frame does.
func WireOf(b []byte) Wire {
	if len(b) > MaxFrameBytes {
		panic("scupkt: frame larger than MaxFrameBytes")
	}
	var buf [16]byte
	copy(buf[:], b)
	return Wire{lo: binary.LittleEndian.Uint64(buf[:]), hi: binary.LittleEndian.Uint16(buf[8:]), n: uint8(len(b))}
}

// WireOfWords rebuilds a frame of n bytes from the two words Words
// returned — how a frame crosses a shard boundary inside an
// event.Payload.
func WireOfWords(lo, hi uint64, n int) Wire { return Wire{lo: lo, hi: uint16(hi), n: uint8(n)} }

// Words returns the frame's two machine words (see Wire).
func (w *Wire) Words() (lo, hi uint64) { return w.lo, uint64(w.hi) }

// Len returns the frame's size in bytes.
func (w *Wire) Len() int { return int(w.n) }

// Bits returns the frame's size on the bit-serial link.
func (w *Wire) Bits() int { return 8 * int(w.n) }

// Bytes returns a copy of the frame's contents, for fault rigs and
// tests; the word path never reads a frame as bytes.
func (w *Wire) Bytes() []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:], w.lo)
	binary.LittleEndian.PutUint16(buf[8:], w.hi)
	return append([]byte(nil), buf[:w.n]...)
}

// FlipBit inverts one bit of the frame, indexed little-endian within
// each byte and taken modulo the frame's bit length — the single-bit
// wire error of §2.2 that parity must catch.
func (w *Wire) FlipBit(bit int) {
	if w.n == 0 {
		return
	}
	bit %= int(w.n) * 8
	if bit < 64 {
		w.lo ^= 1 << bit
	} else {
		w.hi ^= 1 << (bit - 64)
	}
}

// Decode parses the packet at the front of the frame, returning the
// packet and the number of bytes it spans. On a parity failure it still
// reports the frame length so the stream can resynchronize, along with
// the error; a corrupt type code spans one byte.
func (w *Wire) Decode() (Packet, int, error) {
	if w.n < HeaderBytes {
		return Packet{}, 0, ErrTruncated
	}
	hdr := uint8(w.lo)
	kind, ok := decodeKind(hdr >> 2)
	if !ok {
		// The type field is corrupt; the frame length is unknowable, so the
		// link layer must resynchronize. We consume a single byte.
		return Packet{}, 1, ErrHeaderCorrupt
	}
	p := Packet{Kind: kind}
	n := IdleFrame
	switch kind {
	case Idle:
		// Header only. The parity bits cover no payload and are sent as
		// zero, so a nonzero pair is a corrupted header — caught by the
		// parity check below rather than ignored (found by FuzzWireDecode:
		// without it, a flipped parity bit on an idle frame decoded cleanly).
	case PartIRQ, Ack:
		if w.n < AckFrame {
			return Packet{}, 0, ErrTruncated
		}
		p.Payload = w.lo >> 8 & 0xFF
		n = AckFrame
	default: // Data0..3, Supervisor
		if w.n < DataFrame {
			return Packet{}, 0, ErrTruncated
		}
		p.Payload = bits.ReverseBytes64(w.lo>>8 | uint64(w.hi)<<56)
		n = DataFrame
	}
	if parityBits(p.Payload) != hdr&3 {
		return p, n, ErrParity
	}
	return p, n, nil
}

// FrameBytes returns the wire size of the packet in bytes.
func (p Packet) FrameBytes() int {
	switch {
	case p.Kind >= Data0 && p.Kind <= Data3, p.Kind == Supervisor:
		return DataFrame
	case p.Kind == PartIRQ:
		return PartIRQFrame
	case p.Kind == Ack:
		return AckFrame
	default:
		return IdleFrame
	}
}

// FrameBits returns the wire size in bits (the HSSL link is bit-serial).
func (p Packet) FrameBits() int { return 8 * p.FrameBytes() }

// Wire encodes the packet directly into a value frame — the per-word
// path of the SCU transmit engines, with no heap allocation. The header
// is byte 0 and a data word follows most significant byte first, so the
// payload bytes are the byte-reversed word shifted up by one byte.
func (p Packet) Wire() Wire {
	hdr := uint64(encodeKind(p.Kind) << 2)
	switch p.Kind {
	case Idle:
		return Wire{lo: hdr, n: IdleFrame} // no payload, no parity
	case PartIRQ, Ack:
		b := p.Payload & 0xFF
		return Wire{lo: hdr | uint64(parityBits(b)) | b<<8, n: AckFrame}
	default: // Data0..3, Supervisor
		r := bits.ReverseBytes64(p.Payload)
		return Wire{lo: hdr | uint64(parityBits(p.Payload)) | r<<8, hi: uint16(r >> 56), n: DataFrame}
	}
}

// Errors returned by Wire.Decode. Header and parity failures cause the
// receiver to respond with a Nak, triggering the automatic hardware
// resend.
var (
	ErrHeaderCorrupt = errors.New("scupkt: header type code corrupt")
	ErrParity        = errors.New("scupkt: data parity mismatch")
	ErrTruncated     = errors.New("scupkt: truncated frame")
)

// Checksum accumulates the running end-of-link checksum the paper
// describes: "checksums at each end of the link are kept, so at the
// conclusion of a calculation, these checksums can be compared" (§2.2).
// It folds each 64-bit payload into a simple order-sensitive mixing sum,
// cheap enough to be plausible hardware yet strong enough for the tests.
type Checksum struct {
	sum   uint64
	count uint64
}

// Add folds one payload word into the checksum.
func (c *Checksum) Add(payload uint64) {
	c.count++
	x := payload + c.count*0x9E3779B97F4A7C15
	x ^= x >> 29
	c.sum = c.sum*0x100000001B3 + x
}

// Sum returns the current checksum value.
func (c *Checksum) Sum() uint64 { return c.sum }

// Count returns how many words have been folded in.
func (c *Checksum) Count() uint64 { return c.count }

// Equal reports whether two link-end checksums agree.
func (c *Checksum) Equal(o *Checksum) bool {
	return c.sum == o.sum && c.count == o.count
}
