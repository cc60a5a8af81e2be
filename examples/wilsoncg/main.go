// wilsoncg reproduces the paper's §4 benchmark sweep on the functional
// simulator: all four Dirac discretizations at the 4^4-per-node design
// point, reporting sustained efficiency per operator next to the paper's
// measured 40% / 38% / 46.5% (and the "DWF will surpass clover"
// forecast). Expect a few minutes of host time: every packet of every
// halo exchange is simulated.
package main

import (
	"fmt"
	"log"

	"qcdoc/internal/core"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
)

func main() {
	machineShape := geom.MakeShape(2, 2, 2, 2)
	global := lattice.Shape4{8, 8, 8, 8} // 4^4 per node on 16 nodes
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(7)

	fmt.Println("operator   iterations  sim time      Mflops/node  efficiency  paper")
	spinors := func(seed uint64) *lattice.FermionField {
		b := lattice.NewFermionField(global)
		b.Gaussian(seed)
		return b
	}
	rows := []struct {
		name, paper string
		solve       func(*core.Session) (core.SolveMetrics, error)
	}{
		{"wilson", "40%", func(s *core.Session) (core.SolveMetrics, error) {
			_, met, err := s.SolveWilson(gauge, spinors(8), 0.5, fermion.Double, 1e-4, 200)
			return met, err
		}},
		{"clover", "46.5%", func(s *core.Session) (core.SolveMetrics, error) {
			_, met, err := s.SolveClover(fermion.NewClover(gauge, 0.5, 1.0), spinors(9), fermion.Double, 1e-4, 200)
			return met, err
		}},
		{"asqtad", "38%", func(s *core.Session) (core.SolveMetrics, error) {
			b := lattice.NewColorField(global)
			b.Gaussian(10)
			_, met, err := s.SolveASQTAD(fermion.NewASQTAD(gauge, 0.5), b, fermion.Double, 1e-4, 400)
			return met, err
		}},
		{"dwf", "> clover (forecast)", func(s *core.Session) (core.SolveMetrics, error) {
			const ls = 4
			b := fermion.NewField5(global, ls)
			b.Gaussian(11)
			_, met, err := s.SolveDWF(gauge, b, 1.8, 0.1, ls, fermion.Double, 1e-3, 400)
			return met, err
		}},
	}
	for _, r := range rows {
		sess, err := core.NewSession(machineShape, global)
		if err != nil {
			log.Fatal(err)
		}
		met, err := r.solve(sess)
		sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %-11d %-13v %-12.1f %-11s %s\n",
			r.name, met.Iterations, met.SimTime, met.SustainedPerNode/1e6,
			fmt.Sprintf("%.1f%%", 100*met.Efficiency), r.paper)
	}
}
