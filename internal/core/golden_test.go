package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/rng"
)

// solveGolden is everything a distributed solve's simulated behaviour
// shows from the outside.
type solveGolden struct {
	iterations, applications int
	residualBits             uint64 // math.Float64bits(RelResidual)
	solutionCRC              uint32
	simTime                  event.Time
	wordsSent, resends       uint64
}

func vecsCRC(crc uint32, vs ...latmath.Vec3) uint32 {
	var buf [16]byte
	for _, v := range vs {
		for _, z := range v {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(z)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(z)))
			crc = crc32.Update(crc, crc32.IEEETable, buf[:])
		}
	}
	return crc
}

func spinorsCRC(s []latmath.Spinor) uint32 {
	var crc uint32
	for i := range s {
		crc = vecsCRC(crc, s[i][:]...)
	}
	return crc
}

// goldenCase is one of the four distributed solves TestSolveGoldens
// pins: machine 2x2, lattice 8x8x4x4, gauge seed 1, source seed 2.
type goldenCase struct {
	name  string
	want  solveGolden
	trace uint64 // TestWireTraceGolden's machine fold
	solve func(*Session) (solveGolden, error)
}

var goldenGlobal = lattice.Shape4{8, 8, 4, 4}

func goldenCases() []goldenCase {
	global := goldenGlobal
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(1)
	const maxIter = 100
	golden := func(met SolveMetrics, crc uint32) solveGolden {
		return solveGolden{met.Iterations, met.Applications, math.Float64bits(met.RelResidual),
			crc, met.SimTime, met.WordsSent, met.Resends}
	}
	return []goldenCase{
		{"wilson", solveGolden{16, 36, 0x3f158caa51cadb17, 0x67f02112, 33150965584, 0x6c1a0, 0}, 0xbe5475522cd02dec, func(s *Session) (solveGolden, error) {
			b := lattice.NewFermionField(global)
			b.Gaussian(2)
			x, met, err := s.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-4, maxIter)
			return golden(met, spinorsCRC(x.S)), err
		}},
		{"clover", solveGolden{17, 38, 0x3f1978ff483c10d1, 0xf2732638, 42131119857, 0x721b8, 0}, 0x1386a1e3b0777a3b, func(s *Session) (solveGolden, error) {
			b := lattice.NewFermionField(global)
			b.Gaussian(2)
			x, met, err := s.SolveClover(fermion.NewClover(gauge, 0.5, 1.0), b, fermion.Double, 1e-4, maxIter)
			return golden(met, spinorsCRC(x.S)), err
		}},
		{"asqtad", solveGolden{15, 34, 0x3f137272e0ed4764, 0xc374d5db, 26930596945, 0x99188, 0}, 0x7b89828e6be81284, func(s *Session) (solveGolden, error) {
			b := lattice.NewColorField(global)
			b.Gaussian(2)
			x, met, err := s.SolveASQTAD(fermion.NewASQTAD(gauge, 0.5), b, fermion.Double, 1e-4, maxIter)
			return golden(met, vecsCRC(0, x.V...)), err
		}},
		{"dwf", solveGolden{18, 40, 0x3f939c1b766743d3, 0x4e9348fa, 133331663626, 0x1e01d0, 0}, 0x47394d1749a82275, func(s *Session) (solveGolden, error) {
			b := fermion.NewField5(global, 4)
			b.Gaussian(2)
			x, met, err := s.SolveDWF(gauge, b, 1.8, 0.5, 4, fermion.Double, 1e-2, maxIter)
			return golden(met, spinorsCRC(x.S)), err
		}},
	}
}

// TestSolveGoldens pins the simulated behaviour of all four distributed
// solves to the values recorded before the exchange/solve layer was
// unified. A host-only change to internal/core must leave every constant
// alone; a change to simulated behaviour re-records them and says why.
func TestSolveGoldens(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			sess, err := NewSession(geom.MakeShape(2, 2), goldenGlobal)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			got, err := c.solve(sess)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("simulated behaviour changed:\n got  %#v\n want %#v", got, c.want)
			}
		})
	}
}

// traceWires installs a non-mutating fault hook on every wire of the
// machine that folds each frame as it is launched — the transmitter's
// clock at Send, the wire's frame number, the frame bytes — into one
// fingerprint per wire. The returned function folds those, in (rank,
// link) order, into one per machine: two runs agree on it only if every
// wire carried the same frames at the same times.
func traceWires(m *machine.Machine) func() uint64 {
	folds := make([]rng.Fold, 0, m.NumNodes()*geom.NumLinks)
	for r := 0; r < m.NumNodes(); r++ {
		eng := m.NodeEngine(r)
		for _, l := range geom.AllLinks() {
			folds = append(folds, rng.NewFold())
			fold := &folds[len(folds)-1]
			m.Wire(r, l).SetFault(func(f *hssl.Frame) bool {
				fold.Mix(uint64(eng.Now()))
				fold.Mix(f.Seq)
				fold.Mix(uint64(f.Len()))
				for _, b := range f.Bytes() {
					fold.Mix(uint64(b))
				}
				return false
			})
		}
	}
	return func() uint64 {
		all := rng.NewFold()
		for _, f := range folds {
			all.Mix(uint64(f))
		}
		return uint64(all)
	}
}

// TestWireTraceGolden pins, frame by frame, everything the network did
// during the four solves of TestSolveGoldens and during E1's 16-node
// Wilson solve. Event-count work on the engine, the wires or the link
// units (fewer events per word, lazy timers) must leave every fold
// alone: it may change how many events a frame costs the host, never
// which frame leaves which wire when.
func TestWireTraceGolden(t *testing.T) {
	check := func(t *testing.T, sess *Session, want uint64, solve func(*Session) error) {
		t.Helper()
		defer sess.Close()
		fold := traceWires(sess.M)
		if err := solve(sess); err != nil {
			t.Fatal(err)
		}
		if got := fold(); got != want {
			t.Fatalf("wire trace fold %#x, want %#x: some wire carried a different frame or carried it at a different time", got, want)
		}
	}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			sess, err := NewSession(geom.MakeShape(2, 2), goldenGlobal)
			if err != nil {
				t.Fatal(err)
			}
			check(t, sess, c.trace, func(s *Session) error { _, err := c.solve(s); return err })
		})
	}
	t.Run("E1 wilson 16 nodes", func(t *testing.T) {
		global := lattice.Shape4{8, 8, 8, 8}
		sess, err := NewSession(geom.MakeShape(2, 2, 2, 2), global)
		if err != nil {
			t.Fatal(err)
		}
		gauge := lattice.NewGaugeField(global)
		gauge.Randomize(1001)
		b := lattice.NewFermionField(global)
		b.Gaussian(1002)
		check(t, sess, 0xc1869c1441fd448e, func(s *Session) error {
			_, _, err := s.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-4, 300)
			return err
		})
	})
}
