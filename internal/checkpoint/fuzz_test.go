package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"qcdoc/internal/lattice"
)

// validStream serializes a small field of the given kind.
func validStream(t testing.TB, kind Kind) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch kind {
	case KindGauge:
		g := lattice.NewGaugeField(lattice.Shape4{2, 2, 2, 2})
		g.Randomize(3)
		err = WriteGauge(&buf, g)
	case KindFermion:
		f := lattice.NewFermionField(lattice.Shape4{2, 2, 2, 2})
		f.Gaussian(5)
		err = WriteFermion(&buf, f)
	case KindSolver:
		x := lattice.NewFermionField(lattice.Shape4{2, 2, 2, 2})
		x.Gaussian(7)
		err = WriteSolverState(&buf, x, 42)
	default:
		t.Fatalf("no stream for kind %d", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// overflowHeader builds a header whose shape passes no plausibility
// check: each decoder must reject it as ErrBadHeader before allocating
// anything field-sized.
func overflowHeader(kind Kind, extent uint32) []byte {
	var buf bytes.Buffer
	for _, v := range []any{uint64(Magic), uint32(Version), uint32(kind),
		extent, extent, extent, extent, uint32(0)} {
		_ = binary.Write(&buf, binary.BigEndian, v)
	}
	return buf.Bytes()
}

// decodeAny drives whichever reader the stream's kind field selects
// (falling back to ReadGauge for garbage) and, on success, re-encodes
// the decoded value. It returns the re-encoding and the error.
func decodeAny(data []byte) ([]byte, error) {
	kind := Kind(0)
	if len(data) >= 16 {
		kind = Kind(binary.BigEndian.Uint32(data[12:16]))
	}
	r := bytes.NewReader(data)
	var out bytes.Buffer
	switch kind {
	case KindFermion:
		f, err := ReadFermion(r)
		if err != nil {
			return nil, err
		}
		err = WriteFermion(&out, f)
		return out.Bytes(), err
	case KindSolver:
		x, iter, err := ReadSolverState(r)
		if err != nil {
			return nil, err
		}
		err = WriteSolverState(&out, x, iter)
		return out.Bytes(), err
	default:
		g, err := ReadGauge(r)
		if err != nil {
			return nil, err
		}
		err = WriteGauge(&out, g)
		return out.Bytes(), err
	}
}

// FuzzCheckpointDecode drives the checkpoint readers with arbitrary
// byte streams and checks the invariants recovery leans on:
//
//   - no reader ever panics, whatever the bytes;
//   - a stream that decodes cleanly survives a decode -> re-encode
//     round trip byte-identically (the readers accept exactly the
//     writers' language);
//   - errors are the package's typed errors (or the io truncation
//     errors), so recovery can distinguish "corrupt checkpoint, try an
//     older one" from a programming bug;
//   - implausible headers are rejected before any field-sized
//     allocation (see allocChunk) — a fuzzer finding an input that
//     OOMs is a finding here, not infrastructure noise.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed corpus: one valid stream per kind, truncations at the header
	// / payload / trailer boundaries, a shape-overflow header, and junk.
	for _, k := range []Kind{KindGauge, KindFermion, KindSolver} {
		s := validStream(f, k)
		f.Add(s)
		f.Add(s[:7])        // truncated magic
		f.Add(s[:16])       // header cut at the kind field
		f.Add(s[:len(s)/2]) // truncated payload
		f.Add(s[:len(s)-2]) // truncated CRC trailer
		f.Add(s[:len(s)-3]) // torn write: cut at a non-word offset
		// Torn write read back zero-filled to the original length (the
		// RAID lost power mid-stripe; the tail reads as zeros).
		torn := append([]byte(nil), s[:len(s)*3/4]...)
		torn = append(torn, make([]byte, len(s)-len(torn))...)
		f.Add(torn)
		corrupt := append([]byte(nil), s...)
		corrupt[len(corrupt)/2] ^= 0x40
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add(overflowHeader(KindGauge, 4096))
	f.Add(overflowHeader(KindFermion, 0x7FFFFFFF))
	f.Add(overflowHeader(KindSolver, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		reenc, err := decodeAny(data)
		if err == nil {
			if !bytes.Equal(reenc, data[:len(reenc)]) {
				t.Fatalf("decode/re-encode changed the stream:\n in  %x\n out %x", data[:len(reenc)], reenc)
			}
			return
		}
		for _, known := range []error{ErrBadMagic, ErrBadCRC, ErrBadKind, ErrBadHeader,
			io.EOF, io.ErrUnexpectedEOF} {
			if errors.Is(err, known) {
				return
			}
		}
		// The only remaining legal error is the version check.
		if len(data) >= 12 && binary.BigEndian.Uint32(data[8:12]) != Version {
			return
		}
		t.Fatalf("untyped decode error: %v", err)
	})
}

// TestCheckpointDecodeBounds pins the typed-error contract the fuzz
// target checks statistically: truncations surface as io errors,
// implausible shapes as ErrBadHeader, and neither path panics or
// allocates a field the input could not fill.
func TestCheckpointDecodeBounds(t *testing.T) {
	full := validStream(t, KindSolver)
	// Every truncation point must produce a typed truncation error.
	for _, cut := range []int{0, 4, 8, 12, 16, 24, 32, len(full) / 2, len(full) - 1} {
		_, _, err := ReadSolverState(bytes.NewReader(full[:cut]))
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io truncation error", cut, err)
		}
	}
	// Shape overflow: rejected as ErrBadHeader before the payload.
	for _, extent := range []uint32{0, 4097, 1 << 20, 0xFFFFFFFF} {
		_, _, err := ReadSolverState(bytes.NewReader(overflowHeader(KindSolver, extent)))
		if !errors.Is(err, ErrBadHeader) {
			t.Fatalf("extent %d: err = %v, want ErrBadHeader", extent, err)
		}
	}
	// A plausible-but-huge header with no payload behind it must fail
	// with a truncation error without allocating the 2^24-site field it
	// promises (the incremental readers stop at the input's edge).
	big := overflowHeader(KindSolver, 64) // 64^4 = 16M sites, passes the bounds
	if _, _, err := ReadSolverState(bytes.NewReader(big)); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("huge empty stream: err = %v, want io truncation error", err)
	}
	// Kind and CRC mismatches keep their typed errors.
	if _, _, err := ReadSolverState(bytes.NewReader(validStream(t, KindFermion))); !errors.Is(err, ErrBadKind) {
		t.Fatalf("kind mismatch: %v", err)
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 1
	if _, _, err := ReadSolverState(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("payload corruption: %v", err)
	}
}

func TestSolverStateRoundTrip(t *testing.T) {
	x := lattice.NewFermionField(lattice.Shape4{2, 4, 2, 2})
	x.Gaussian(11)
	var buf bytes.Buffer
	if err := WriteSolverState(&buf, x, 137); err != nil {
		t.Fatal(err)
	}
	got, iter, err := ReadSolverState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 137 {
		t.Fatalf("iteration %d, want 137", iter)
	}
	for i := range x.S {
		if got.S[i] != x.S[i] {
			t.Fatalf("site %d differs", i)
		}
	}
	if FermionCRC(got) != FermionCRC(x) {
		t.Fatal("fingerprints differ after round trip")
	}
}
