package checkpoint

import (
	"bytes"
	"hash/crc32"
	"testing"

	"qcdoc/internal/lattice"
)

// goldenStreams serializes fixed small inputs through every writer.
func goldenStreams(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	write := func(name string, fn func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	g := lattice.NewGaugeField(lattice.Shape4{2, 2, 2, 4})
	g.Randomize(11)
	write("gauge", func(b *bytes.Buffer) error { return WriteGauge(b, g) })
	f := lattice.NewFermionField(lattice.Shape4{2, 2, 4, 2})
	f.Gaussian(12)
	write("fermion", func(b *bytes.Buffer) error { return WriteFermion(b, f) })
	x := lattice.NewFermionField(lattice.Shape4{4, 2, 2, 2})
	x.Gaussian(13)
	write("solver", func(b *bytes.Buffer) error { return WriteSolverState(b, x, 0xC0FFEE) })
	m := &Manifest{Generations: []Generation{
		{Attempt: 0, Iter: 10, CRCs: []uint32{0xAAAA0001, 0xAAAA0002, 0xAAAA0003, 0xAAAA0004}},
		{Attempt: 2, Iter: 70, CRCs: nil},
		{Attempt: 3, Iter: 140, CRCs: []uint32{0xDEADBEEF}},
	}}
	write("manifest", func(b *bytes.Buffer) error { return WriteManifest(b, m) })
	write("manifest-empty", func(b *bytes.Buffer) error { return WriteManifest(b, &Manifest{}) })
	return out
}

// TestOnDiskBytesGolden pins the CRC-32C and length of every writer's
// full output for fixed inputs: the on-disk format must not move when
// the codec's implementation does.
func TestOnDiskBytesGolden(t *testing.T) {
	want := map[string]struct {
		n   int
		crc uint32
	}{
		"gauge":          {18472, 0x1ab9f41f},
		"fermion":        {6184, 0xf42306f6},
		"solver":         {6184, 0x796c2cd1},
		"manifest":       {76, 0xa3bb5ceb},
		"manifest-empty": {20, 0x3d90c43f},
	}
	for name, b := range goldenStreams(t) {
		got := crc32.Checksum(b, castagnoli)
		w := want[name]
		if len(b) != w.n || got != w.crc {
			t.Errorf("%s: %d bytes, crc %#08x; want %d bytes, crc %#08x", name, len(b), got, w.n, w.crc)
		}
	}
}

// TestFingerprintsMatchStreams holds the one-pass fingerprints to the
// CRC-32C of the full stream the writers produce, trailer included.
func TestFingerprintsMatchStreams(t *testing.T) {
	for _, tc := range []struct {
		l    lattice.Shape4
		seed uint64
	}{
		{lattice.Shape4{1, 1, 1, 1}, 1},
		{lattice.Shape4{2, 2, 2, 2}, 2},
		{lattice.Shape4{4, 2, 2, 2}, 3},
		{lattice.Shape4{2, 4, 2, 6}, 4},
	} {
		f := lattice.NewFermionField(tc.l)
		f.Gaussian(tc.seed)
		var fb bytes.Buffer
		if err := WriteFermion(&fb, f); err != nil {
			t.Fatal(err)
		}
		if got, want := FermionCRC(f), crc32.Checksum(fb.Bytes(), castagnoli); got != want {
			t.Errorf("%v seed %d: FermionCRC %#08x, stream CRC %#08x", tc.l, tc.seed, got, want)
		}
		g := lattice.NewGaugeField(tc.l)
		g.Randomize(tc.seed)
		var gb bytes.Buffer
		if err := WriteGauge(&gb, g); err != nil {
			t.Fatal(err)
		}
		if got, want := GaugeCRC(g), crc32.Checksum(gb.Bytes(), castagnoli); got != want {
			t.Errorf("%v seed %d: GaugeCRC %#08x, stream CRC %#08x", tc.l, tc.seed, got, want)
		}
	}
}

// TestCodecAllocsIndependentOfVolume holds the encoders and decoders to
// a fixed number of allocations per call, whatever the lattice volume:
// nothing is allocated per site or per value. The decoders' count
// depends on volume only through the field's own storage, which grows
// by append in allocChunk steps; both volumes here fit one step.
func TestCodecAllocsIndependentOfVolume(t *testing.T) {
	type counts struct{ writeF, readF, writeG, readG, fp float64 }
	measure := func(l lattice.Shape4) counts {
		f := lattice.NewFermionField(l)
		f.Gaussian(1)
		g := lattice.NewGaugeField(l)
		g.Randomize(1)
		var fb, gb bytes.Buffer
		fb.Grow(1 << 20)
		gb.Grow(1 << 20)
		var c counts
		c.writeF = testing.AllocsPerRun(5, func() { fb.Reset(); _ = WriteSolverState(&fb, f, 7) })
		c.writeG = testing.AllocsPerRun(5, func() { gb.Reset(); _ = WriteGauge(&gb, g) })
		c.fp = testing.AllocsPerRun(5, func() { _ = FermionCRC(f) + GaugeCRC(g) })
		var r bytes.Reader
		c.readF = testing.AllocsPerRun(5, func() {
			r.Reset(fb.Bytes())
			if _, _, err := ReadSolverState(&r); err != nil {
				t.Fatal(err)
			}
		})
		c.readG = testing.AllocsPerRun(5, func() {
			r.Reset(gb.Bytes())
			if _, err := ReadGauge(&r); err != nil {
				t.Fatal(err)
			}
		})
		return c
	}
	small := measure(lattice.Shape4{2, 2, 2, 2})
	large := measure(lattice.Shape4{4, 4, 4, 8})
	if small != large {
		t.Fatalf("allocations depend on volume: 16 sites %+v, 512 sites %+v", small, large)
	}
	if small.writeF > 2 || small.writeG > 2 || small.fp > 4 || small.readF > 4 || small.readG > 4 {
		t.Fatalf("codec allocations %+v exceed the per-call budget", small)
	}
	t.Logf("allocations per call: %+v", small)
}
