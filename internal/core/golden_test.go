package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
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

// TestSolveGoldens pins the simulated behaviour of all four distributed
// solves — machine 2x2, lattice 8x8x4x4, gauge seed 1, source seed 2 —
// to the values recorded before the exchange/solve layer was unified. A
// host-only change to internal/core must leave every constant alone; a
// change to simulated behaviour re-records them and says why.
func TestSolveGoldens(t *testing.T) {
	global := lattice.Shape4{8, 8, 4, 4}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(1)
	const maxIter = 100
	golden := func(met SolveMetrics, crc uint32) solveGolden {
		return solveGolden{met.Iterations, met.Applications, math.Float64bits(met.RelResidual),
			crc, met.SimTime, met.WordsSent, met.Resends}
	}
	cases := []struct {
		name  string
		want  solveGolden
		solve func(*Session) (solveGolden, error)
	}{
		{"wilson", solveGolden{16, 36, 0x3f158caa51cadb17, 0x67f02112, 33200816584, 0x6c1a0, 0}, func(s *Session) (solveGolden, error) {
			b := lattice.NewFermionField(global)
			b.Gaussian(2)
			x, met, err := s.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-4, maxIter)
			return golden(met, spinorsCRC(x.S)), err
		}},
		{"clover", solveGolden{17, 38, 0x3f1978ff483c10d1, 0xf2732638, 42180970857, 0x721b8, 0}, func(s *Session) (solveGolden, error) {
			b := lattice.NewFermionField(global)
			b.Gaussian(2)
			x, met, err := s.SolveClover(fermion.NewClover(gauge, 0.5, 1.0), b, fermion.Double, 1e-4, maxIter)
			return golden(met, spinorsCRC(x.S)), err
		}},
		{"asqtad", solveGolden{15, 34, 0x3f137272e0ed48ac, 0xd2cb631b, 26980447945, 0x99188, 0}, func(s *Session) (solveGolden, error) {
			b := lattice.NewColorField(global)
			b.Gaussian(2)
			x, met, err := s.SolveASQTAD(fermion.NewASQTAD(gauge, 0.5), b, fermion.Double, 1e-4, maxIter)
			return golden(met, vecsCRC(0, x.V...)), err
		}},
		{"dwf", solveGolden{18, 40, 0x3f939c1b766743d3, 0x4e9348fa, 133381514626, 0x1e01d0, 0}, func(s *Session) (solveGolden, error) {
			b := fermion.NewField5(global, 4)
			b.Gaussian(2)
			x, met, err := s.SolveDWF(gauge, b, 1.8, 0.5, 4, fermion.Double, 1e-2, maxIter)
			return golden(met, spinorsCRC(x.S)), err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sess, err := NewSession(geom.MakeShape(2, 2), global)
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
