// Package checkpoint serializes lattice fields to a portable binary
// format with an integrity checksum. QCD jobs run for weeks (the paper's
// verification run was five days, §4), periodically writing
// configurations to the host's parallel RAID storage over NFS (§3.2);
// the bit-identical re-run experiment (E10) compares two such
// checkpoints exactly.
//
// Format: a fixed header (magic, version, kind, lattice shape, extra
// dims), the field payload as big-endian IEEE-754 bit patterns, and a
// CRC-32 (Castagnoli) of header+payload as trailer.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
)

// Magic identifies a checkpoint stream ("QCDOCCKP").
const Magic = 0x5143444F43434B50

// Version of the on-disk format.
const Version = 1

// Kind of serialized field.
type Kind uint32

const (
	// KindGauge is an SU(3) gauge configuration.
	KindGauge Kind = iota + 1
	// KindFermion is a Dirac spinor field.
	KindFermion
	// KindSolver is an in-flight solve: the current solution iterate
	// (a spinor field) plus the iteration count in the extra header
	// word. Recovery restores it and warm-restarts CG from the iterate.
	KindSolver
)

// castagnoli is the CRC-32C polynomial table; crc32.MakeTable returns
// a shared read-only pointer the stdlib itself caches process-wide.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	ErrBadMagic  = errors.New("checkpoint: bad magic")
	ErrBadCRC    = errors.New("checkpoint: CRC mismatch")
	ErrBadKind   = errors.New("checkpoint: unexpected field kind")
	ErrBadHeader = errors.New("checkpoint: corrupt header")
)

// crcWriter mirrors written bytes into a CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	return cw.w.Write(p)
}

// The codec moves whole records: a header, or one site's complex
// numbers, is appended into one reused buffer and crosses the CRC
// stream in one call, so nothing is allocated per value. siteBytes is
// the largest record, a spinor of 4x3 complex numbers.
const siteBytes = 4 * 3 * 16

// appendRows appends rows of three complex numbers, big-endian IEEE-754
// bit patterns: a link matrix's rows, or a spinor's color vectors.
func appendRows[R ~[3]complex128](b []byte, rows []R) []byte {
	for _, row := range rows {
		for _, z := range row {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(real(z)))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(imag(z)))
		}
	}
	return b
}

func appendMat(b []byte, m *latmath.Mat3) []byte      { return appendRows(b, m[:]) }
func appendSpinor(b []byte, s *latmath.Spinor) []byte { return appendRows(b, s[:]) }

// writeSites writes a header, one record per site and the CRC trailer,
// and returns the CRC of header and payload (the trailer's value).
func writeSites[S any](w io.Writer, kind Kind, l lattice.Shape4, extra uint32,
	sites []S, appendSite func([]byte, *S) []byte) (uint32, error) {
	cw := crcWriter{w: w}
	b := binary.BigEndian.AppendUint64(make([]byte, 0, siteBytes), Magic)
	b = binary.BigEndian.AppendUint32(b, Version)
	b = binary.BigEndian.AppendUint32(b, uint32(kind))
	for _, n := range l {
		b = binary.BigEndian.AppendUint32(b, uint32(n))
	}
	if _, err := cw.Write(binary.BigEndian.AppendUint32(b, extra)); err != nil {
		return 0, err
	}
	for i := range sites {
		if _, err := cw.Write(appendSite(b[:0], &sites[i])); err != nil {
			return 0, err
		}
	}
	_, err := w.Write(binary.BigEndian.AppendUint32(b[:0], cw.crc))
	return cw.crc, err
}

// cursor reads big-endian values off the front of a decoded record.
type cursor []byte

func (c *cursor) u32() uint32 {
	v := binary.BigEndian.Uint32(*c)
	*c = (*c)[4:]
	return v
}

func (c *cursor) u64() uint64 {
	v := binary.BigEndian.Uint64(*c)
	*c = (*c)[8:]
	return v
}

// decoder reads a stream's records into one buffer, checksumming them.
type decoder struct {
	r   io.Reader
	crc uint32
	buf [siteBytes]byte
}

// next reads the following n-byte record.
func (d *decoder) next(n int) (cursor, error) {
	_, err := io.ReadFull(d.r, d.buf[:n])
	d.crc = crc32.Update(d.crc, castagnoli, d.buf[:n])
	return d.buf[:n], err
}

// trailer reads the stored CRC, which follows the checksummed bytes.
func (d *decoder) trailer() (uint32, error) {
	_, err := io.ReadFull(d.r, d.buf[:4])
	return binary.BigEndian.Uint32(d.buf[:4]), err
}

func (d *decoder) header() (kind Kind, l lattice.Shape4, extra uint32, err error) {
	c, err := d.next(8)
	if err != nil {
		return
	}
	if c.u64() != Magic {
		err = ErrBadMagic
		return
	}
	if c, err = d.next(4); err != nil {
		return
	}
	if version := c.u32(); version != Version {
		err = fmt.Errorf("checkpoint: unsupported version %d", version)
		return
	}
	if c, err = d.next(6 * 4); err != nil { // kind, four extents, extra
		return
	}
	kind = Kind(c.u32())
	for i := range l {
		l[i] = int(c.u32())
	}
	extra = c.u32()
	// Sanity-bound the header before anything allocates from it: a
	// corrupted shape must be rejected here, not after attempting a
	// multi-gigabyte field allocation (the CRC would catch the corruption
	// too late).
	const maxExtent = 4096
	volume := 1
	for _, n := range l {
		if n < 1 || n > maxExtent {
			err = fmt.Errorf("%w: implausible lattice shape %v", ErrBadHeader, l)
			return
		}
		volume *= n
	}
	if volume > maxVolume {
		err = fmt.Errorf("%w: lattice volume %d exceeds limit", ErrBadHeader, volume)
	}
	return
}

// maxVolume bounds checkpoint lattices (2^26 sites is far beyond any
// simulated machine here).
const maxVolume = 1 << 26

// allocChunk caps the up-front payload allocation: storage grows as
// bytes actually arrive, so a corrupt-but-plausible header can never
// force an allocation far larger than the input it came with (the
// decoder property FuzzCheckpointDecode pins).
const allocChunk = 4096

func readRows[R ~[3]complex128](c cursor, rows []R) {
	for i := range rows {
		for k := range rows[i] {
			re := math.Float64frombits(c.u64())
			rows[i][k] = complex(re, math.Float64frombits(c.u64()))
		}
	}
}

func readMat(c cursor, m *latmath.Mat3)      { readRows(c, m[:]) }
func readSpinor(c cursor, s *latmath.Spinor) { readRows(c, s[:]) }

// readSites decodes n site records of size bytes each, growing the
// slice only as records arrive.
func readSites[S any](d *decoder, n, size int, read func(cursor, *S)) ([]S, error) {
	out := make([]S, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		c, err := d.next(size)
		if err != nil {
			return nil, err
		}
		var zero S
		out = append(out, zero)
		read(c, &out[i])
	}
	return out, nil
}

// WriteGauge serializes a gauge configuration.
func WriteGauge(w io.Writer, g *lattice.GaugeField) error {
	_, err := writeSites(w, KindGauge, g.L, 0, g.U, appendMat)
	return err
}

// ReadGauge deserializes a gauge configuration, verifying the CRC.
func ReadGauge(r io.Reader) (*lattice.GaugeField, error) {
	d := &decoder{r: r}
	kind, l, _, err := d.header()
	if err != nil {
		return nil, err
	}
	if kind != KindGauge {
		return nil, fmt.Errorf("%w: got %d, want gauge", ErrBadKind, kind)
	}
	us, err := readSites(d, 4*l.Volume(), 3*3*16, readMat)
	if err != nil {
		return nil, err
	}
	g := &lattice.GaugeField{L: l, U: us}
	sum := d.crc
	stored, err := d.trailer()
	if err != nil {
		return nil, err
	}
	if stored != sum {
		return nil, fmt.Errorf("%w: stored %#x computed %#x", ErrBadCRC, stored, sum)
	}
	return g, nil
}

// WriteFermion serializes a spinor field.
func WriteFermion(w io.Writer, f *lattice.FermionField) error {
	_, err := writeSites(w, KindFermion, f.L, 0, f.S, appendSpinor)
	return err
}

// readSpinorField decodes a spinor-field stream of the given kind,
// returning its extra header word.
func readSpinorField(r io.Reader, want Kind, name string) (*lattice.FermionField, uint32, error) {
	d := &decoder{r: r}
	kind, l, extra, err := d.header()
	if err != nil {
		return nil, 0, err
	}
	if kind != want {
		return nil, 0, fmt.Errorf("%w: got %d, want %s", ErrBadKind, kind, name)
	}
	ss, err := readSites(d, l.Volume(), siteBytes, readSpinor)
	if err != nil {
		return nil, 0, err
	}
	stored, err := d.trailer()
	if err != nil {
		return nil, 0, err
	}
	if stored != d.crc {
		return nil, 0, ErrBadCRC
	}
	return &lattice.FermionField{L: l, S: ss}, extra, nil
}

// ReadFermion deserializes a spinor field, verifying the CRC.
func ReadFermion(r io.Reader) (*lattice.FermionField, error) {
	f, _, err := readSpinorField(r, KindFermion, "fermion")
	return f, err
}

// WriteSolverState serializes an in-flight solve: the solution iterate
// x and the iteration count at which it was taken. The periodic
// checkpoints of a recovery-enabled CG solve (solver.CGNE) are written
// in this format to host storage, and the chaos/recovery flow restores
// the newest complete one after a node death.
func WriteSolverState(w io.Writer, x *lattice.FermionField, iteration uint32) error {
	_, err := writeSites(w, KindSolver, x.L, iteration, x.S, appendSpinor)
	return err
}

// ReadSolverState deserializes an in-flight solve, verifying the CRC.
func ReadSolverState(r io.Reader) (*lattice.FermionField, uint32, error) {
	return readSpinorField(r, KindSolver, "solver state")
}

// wholeCRC extends the CRC of a stream's header and payload over its
// own big-endian trailer: CRC-32C streams, so this is the checksum of
// the whole stream, computed in one pass over the field.
func wholeCRC(inner uint32) uint32 {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], inner)
	return crc32.Update(inner, castagnoli, b[:])
}

// FermionCRC returns the checksum a WriteFermion of f would produce —
// the spinor-field fingerprint recovery runs use to prove the restored
// solution is bit-identical to the fault-free one.
func FermionCRC(f *lattice.FermionField) uint32 {
	inner, _ := writeSites(io.Discard, KindFermion, f.L, 0, f.S, appendSpinor)
	return wholeCRC(inner)
}

// GaugeCRC returns the checksum of a WriteGauge of g — header, payload
// and inner trailer — a cheap fingerprint for bit-identity comparisons
// without keeping two full configurations in memory.
func GaugeCRC(g *lattice.GaugeField) uint32 {
	inner, _ := writeSites(io.Discard, KindGauge, g.L, 0, g.U, appendMat)
	return wholeCRC(inner)
}
