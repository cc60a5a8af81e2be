package hmc

import (
	"math"
	"testing"

	"qcdoc/internal/lattice"
)

func smallLattice() lattice.Shape4 { return lattice.Shape4{4, 4, 4, 4} }

func TestHeatbathPreservesSU3(t *testing.T) {
	g := lattice.NewGaugeField(smallLattice())
	hb := &Heatbath{Beta: 5.6, Seed: 1}
	hb.Sweep(g)
	for i := 0; i < 64; i++ {
		if !g.U[i].IsSU3(1e-9) {
			t.Fatalf("link %d left SU(3)", i)
		}
	}
}

func TestHeatbathBitReproducible(t *testing.T) {
	// The single-node version of the paper's five-day verification (§4):
	// re-running the evolution gives a configuration identical in all
	// bits.
	a := lattice.NewGaugeField(smallLattice())
	b := lattice.NewGaugeField(smallLattice())
	ha := &Heatbath{Beta: 5.6, Seed: 42}
	hb := &Heatbath{Beta: 5.6, Seed: 42}
	for i := 0; i < 3; i++ {
		ha.Sweep(a)
		hb.Sweep(b)
	}
	if !a.Equal(b) {
		t.Fatal("re-run evolution not bit-identical")
	}
	// A different seed diverges.
	c := lattice.NewGaugeField(smallLattice())
	hc := &Heatbath{Beta: 5.6, Seed: 43}
	hc.Sweep(c)
	if a.Equal(c) {
		t.Fatal("different seed gave identical configuration")
	}
}

func TestHeatbathEquilibratesFromBothStarts(t *testing.T) {
	// Hot and cold starts converge to the same plaquette: the standard
	// thermalization check.
	beta := 5.6
	cold := lattice.NewGaugeField(smallLattice())
	hot := lattice.NewGaugeField(smallLattice())
	hot.Randomize(7)
	hc := &Heatbath{Beta: beta, Seed: 100}
	hh := &Heatbath{Beta: beta, Seed: 200}
	for i := 0; i < 30; i++ {
		hc.Sweep(cold)
		hh.Sweep(hot)
	}
	// Average over a few more sweeps.
	avg := func(h *Heatbath, g *lattice.GaugeField) float64 {
		sum := 0.0
		n := 10
		for i := 0; i < n; i++ {
			h.Sweep(g)
			sum += g.Plaquette()
		}
		return sum / float64(n)
	}
	pc := avg(hc, cold)
	ph := avg(hh, hot)
	if math.Abs(pc-ph) > 0.02 {
		t.Fatalf("cold start plaquette %.4f vs hot start %.4f", pc, ph)
	}
	// At beta = 5.6 the plaquette is around 0.50 (known SU(3) value).
	if pc < 0.4 || pc > 0.6 {
		t.Fatalf("plaquette %.4f out of physical range at beta=5.6", pc)
	}
}

func TestStrongCouplingPlaquette(t *testing.T) {
	// Leading strong-coupling expansion: <P> = beta/18 + O(beta^2) for
	// SU(3). At beta = 0.5 expect ~0.0278.
	beta := 0.5
	g := lattice.NewGaugeField(smallLattice())
	h := &Heatbath{Beta: beta, Seed: 11}
	for i := 0; i < 20; i++ {
		h.Sweep(g)
	}
	sum := 0.0
	n := 20
	for i := 0; i < n; i++ {
		h.Sweep(g)
		sum += g.Plaquette()
	}
	p := sum / float64(n)
	want := beta / 18
	if math.Abs(p-want) > 0.01 {
		t.Fatalf("strong-coupling plaquette %.4f, want ~%.4f", p, want)
	}
}
