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

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, castagnoli, p[:n])
	return n, err
}

func writeHeader(w io.Writer, kind Kind, l lattice.Shape4, extra uint32) error {
	hdr := []any{uint64(Magic), uint32(Version), uint32(kind),
		uint32(l[0]), uint32(l[1]), uint32(l[2]), uint32(l[3]), extra}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func readHeader(r io.Reader) (kind Kind, l lattice.Shape4, extra uint32, err error) {
	var magic uint64
	var version uint32
	if err = binary.Read(r, binary.BigEndian, &magic); err != nil {
		return
	}
	if magic != Magic {
		err = ErrBadMagic
		return
	}
	if err = binary.Read(r, binary.BigEndian, &version); err != nil {
		return
	}
	if version != Version {
		err = fmt.Errorf("checkpoint: unsupported version %d", version)
		return
	}
	var k uint32
	if err = binary.Read(r, binary.BigEndian, &k); err != nil {
		return
	}
	kind = Kind(k)
	var dims [4]uint32
	for i := range dims {
		if err = binary.Read(r, binary.BigEndian, &dims[i]); err != nil {
			return
		}
		l[i] = int(dims[i])
	}
	if err = binary.Read(r, binary.BigEndian, &extra); err != nil {
		return
	}
	// Sanity-bound the header before anything allocates from it: a
	// corrupted shape must be rejected here, not after attempting a
	// multi-gigabyte field allocation (the CRC would catch the corruption
	// too late).
	const maxExtent = 4096
	volume := 1
	for _, d := range l {
		if d < 1 || d > maxExtent {
			err = fmt.Errorf("%w: implausible lattice shape %v", ErrBadHeader, l)
			return
		}
		volume *= d
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

func readMats(r io.Reader, n int) ([]latmath.Mat3, error) {
	cap0 := n
	if cap0 > allocChunk {
		cap0 = allocChunk
	}
	out := make([]latmath.Mat3, 0, cap0)
	for i := 0; i < n; i++ {
		var m latmath.Mat3
		for row := 0; row < 3; row++ {
			for c := 0; c < 3; c++ {
				z, err := readComplex(r)
				if err != nil {
					return nil, err
				}
				m[row][c] = z
			}
		}
		out = append(out, m)
	}
	return out, nil
}

func readSpinors(r io.Reader, n int) ([]latmath.Spinor, error) {
	cap0 := n
	if cap0 > allocChunk {
		cap0 = allocChunk
	}
	out := make([]latmath.Spinor, 0, cap0)
	for i := 0; i < n; i++ {
		var s latmath.Spinor
		for a := 0; a < 4; a++ {
			for c := 0; c < 3; c++ {
				z, err := readComplex(r)
				if err != nil {
					return nil, err
				}
				s[a][c] = z
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func writeComplex(w io.Writer, z complex128) error {
	if err := binary.Write(w, binary.BigEndian, math.Float64bits(real(z))); err != nil {
		return err
	}
	return binary.Write(w, binary.BigEndian, math.Float64bits(imag(z)))
}

func readComplex(r io.Reader) (complex128, error) {
	var re, im uint64
	if err := binary.Read(r, binary.BigEndian, &re); err != nil {
		return 0, err
	}
	if err := binary.Read(r, binary.BigEndian, &im); err != nil {
		return 0, err
	}
	return complex(math.Float64frombits(re), math.Float64frombits(im)), nil
}

// WriteGauge serializes a gauge configuration.
func WriteGauge(w io.Writer, g *lattice.GaugeField) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, KindGauge, g.L, 0); err != nil {
		return err
	}
	for i := range g.U {
		m := &g.U[i]
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if err := writeComplex(cw, m[r][c]); err != nil {
					return err
				}
			}
		}
	}
	return binary.Write(w, binary.BigEndian, cw.crc)
}

// ReadGauge deserializes a gauge configuration, verifying the CRC.
func ReadGauge(r io.Reader) (*lattice.GaugeField, error) {
	cr := &crcReader{r: r}
	kind, l, _, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	if kind != KindGauge {
		return nil, fmt.Errorf("%w: got %d, want gauge", ErrBadKind, kind)
	}
	us, err := readMats(cr, 4*l.Volume())
	if err != nil {
		return nil, err
	}
	g := &lattice.GaugeField{L: l, U: us}
	sum := cr.crc
	var stored uint32
	if err := binary.Read(r, binary.BigEndian, &stored); err != nil {
		return nil, err
	}
	if stored != sum {
		return nil, fmt.Errorf("%w: stored %#x computed %#x", ErrBadCRC, stored, sum)
	}
	return g, nil
}

// WriteFermion serializes a spinor field.
func WriteFermion(w io.Writer, f *lattice.FermionField) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, KindFermion, f.L, 0); err != nil {
		return err
	}
	for i := range f.S {
		for a := 0; a < 4; a++ {
			for c := 0; c < 3; c++ {
				if err := writeComplex(cw, f.S[i][a][c]); err != nil {
					return err
				}
			}
		}
	}
	return binary.Write(w, binary.BigEndian, cw.crc)
}

// ReadFermion deserializes a spinor field, verifying the CRC.
func ReadFermion(r io.Reader) (*lattice.FermionField, error) {
	cr := &crcReader{r: r}
	kind, l, _, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	if kind != KindFermion {
		return nil, fmt.Errorf("%w: got %d, want fermion", ErrBadKind, kind)
	}
	ss, err := readSpinors(cr, l.Volume())
	if err != nil {
		return nil, err
	}
	f := &lattice.FermionField{L: l, S: ss}
	var stored uint32
	if err := binary.Read(r, binary.BigEndian, &stored); err != nil {
		return nil, err
	}
	if stored != cr.crc {
		return nil, ErrBadCRC
	}
	return f, nil
}

// WriteSolverState serializes an in-flight solve: the solution iterate
// x and the iteration count at which it was taken. The periodic
// checkpoints of a recovery-enabled CG solve (solver.CGNE) are written
// in this format to host storage, and the chaos/recovery flow restores
// the newest complete one after a node death.
func WriteSolverState(w io.Writer, x *lattice.FermionField, iteration uint32) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, KindSolver, x.L, iteration); err != nil {
		return err
	}
	for i := range x.S {
		for a := 0; a < 4; a++ {
			for c := 0; c < 3; c++ {
				if err := writeComplex(cw, x.S[i][a][c]); err != nil {
					return err
				}
			}
		}
	}
	return binary.Write(w, binary.BigEndian, cw.crc)
}

// ReadSolverState deserializes an in-flight solve, verifying the CRC.
func ReadSolverState(r io.Reader) (*lattice.FermionField, uint32, error) {
	cr := &crcReader{r: r}
	kind, l, iteration, err := readHeader(cr)
	if err != nil {
		return nil, 0, err
	}
	if kind != KindSolver {
		return nil, 0, fmt.Errorf("%w: got %d, want solver state", ErrBadKind, kind)
	}
	ss, err := readSpinors(cr, l.Volume())
	if err != nil {
		return nil, 0, err
	}
	x := &lattice.FermionField{L: l, S: ss}
	var stored uint32
	if err := binary.Read(r, binary.BigEndian, &stored); err != nil {
		return nil, 0, err
	}
	if stored != cr.crc {
		return nil, 0, ErrBadCRC
	}
	return x, iteration, nil
}

// FermionCRC returns the checksum a WriteFermion of f would produce —
// the spinor-field fingerprint recovery runs use to prove the restored
// solution is bit-identical to the fault-free one.
func FermionCRC(f *lattice.FermionField) uint32 {
	cw := &crcWriter{w: io.Discard}
	_ = WriteFermion(cw, f)
	return cw.crc
}

// GaugeCRC returns the checksum a WriteGauge of g would produce —
// a cheap fingerprint for bit-identity comparisons without keeping two
// full configurations in memory.
func GaugeCRC(g *lattice.GaugeField) uint32 {
	cw := &crcWriter{w: io.Discard}
	_ = WriteGauge(cw, g) // CRC accumulates over header+payload+inner trailer
	return cw.crc
}
