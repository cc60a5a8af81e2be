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

// encodeKind maps a Kind (3 data bits) to its 6-bit codeword:
// c = [d1 d2 d3 | d1^d2 d1^d3 d2^d3].
func encodeKind(k Kind) uint8 {
	d1 := uint8(k>>2) & 1
	d2 := uint8(k>>1) & 1
	d3 := uint8(k) & 1
	return d1<<5 | d2<<4 | d3<<3 | (d1^d2)<<2 | (d1^d3)<<1 | (d2 ^ d3)
}

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

// Wire is one frame as it exists on the bit-serial link: a fixed-size
// byte array plus a length, passed **by value** through the transmit
// and receive pipelines. Value semantics are the memory model of the
// hardware registers it stands in for — handing a Wire to another layer
// copies the bits, so no layer can alias or retain another's buffer,
// and the steady-state frame path allocates nothing.
type Wire struct {
	n   uint8
	buf [MaxFrameBytes]byte
}

// WireOf builds a frame from raw bytes (tests and fault rigs). It
// panics if b exceeds MaxFrameBytes, which no legal frame does.
func WireOf(b []byte) Wire {
	var w Wire
	if len(b) > MaxFrameBytes {
		panic("scupkt: frame larger than MaxFrameBytes")
	}
	w.n = uint8(copy(w.buf[:], b))
	return w
}

// Len returns the frame's size in bytes.
func (w *Wire) Len() int { return int(w.n) }

// Bits returns the frame's size on the bit-serial link.
func (w *Wire) Bits() int { return 8 * int(w.n) }

// Bytes returns the frame's contents as a slice of the receiver's
// backing array. The slice aliases the Wire it was taken from — use it
// for inspection in place, not for retention.
func (w *Wire) Bytes() []byte { return w.buf[:w.n] }

// FlipBit inverts one bit of the frame, indexed little-endian within
// each byte and taken modulo the frame's bit length — the single-bit
// wire error of §2.2 that parity must catch.
func (w *Wire) FlipBit(bit int) {
	if w.n == 0 {
		return
	}
	bit %= int(w.n) * 8
	w.buf[bit/8] ^= 1 << (bit % 8)
}

// Decode parses the packet held in the frame. Semantics match the
// package-level Decode, with no intermediate buffer.
func (w *Wire) Decode() (Packet, int, error) {
	return Decode(w.buf[:w.n])
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
// path of the SCU transmit engines, with no heap allocation.
func (p Packet) Wire() Wire {
	var w Wire
	var par uint8
	switch p.Kind {
	case Idle:
		// No payload, no parity.
	case PartIRQ, Ack:
		par = parityBits(p.Payload & 0xFF)
	default: // Data0..3, Supervisor
		par = parityBits(p.Payload)
	}
	w.buf[0] = encodeKind(p.Kind)<<2 | par
	w.n = HeaderBytes
	switch p.Kind {
	case Idle:
	case PartIRQ, Ack:
		w.buf[HeaderBytes] = byte(p.Payload)
		w.n = HeaderBytes + 1
	default:
		for i, shift := 0, 56; shift >= 0; i, shift = i+1, shift-8 {
			w.buf[HeaderBytes+i] = byte(p.Payload >> shift)
		}
		w.n = DataFrame
	}
	return w
}

// Encode serializes the packet, appending to dst and returning the result.
func (p Packet) Encode(dst []byte) []byte {
	w := p.Wire()
	return append(dst, w.buf[:w.n]...)
}

// Errors returned by Decode. Header and parity failures cause the
// receiver to respond with a Nak, triggering the automatic hardware
// resend.
var (
	ErrHeaderCorrupt = errors.New("scupkt: header type code corrupt")
	ErrParity        = errors.New("scupkt: data parity mismatch")
	ErrTruncated     = errors.New("scupkt: truncated frame")
)

// Decode parses one packet from the front of buf, returning the packet
// and the number of bytes consumed. On a parity failure it still reports
// the frame length so the stream can resynchronize, along with the error.
func Decode(buf []byte) (Packet, int, error) {
	if len(buf) < HeaderBytes {
		return Packet{}, 0, ErrTruncated
	}
	hdr := buf[0]
	kind, ok := decodeKind(hdr >> 2)
	if !ok {
		// The type field is corrupt; the frame length is unknowable, so the
		// link layer must resynchronize. We consume a single byte.
		return Packet{}, 1, ErrHeaderCorrupt
	}
	par := hdr & 3
	p := Packet{Kind: kind}
	n := HeaderBytes
	switch kind {
	case Idle:
		// Header only. The parity bits cover no payload and are sent as
		// zero, so a nonzero pair is a corrupted header — caught here
		// rather than ignored (found by FuzzWireDecode: without this, a
		// flipped parity bit on an idle frame decoded cleanly).
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
