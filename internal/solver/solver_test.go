package solver

import (
	"errors"
	"testing"

	"qcdoc/internal/fermion"
	"qcdoc/internal/lattice"
)

func hotGauge(seed uint64, l lattice.Shape4) *lattice.GaugeField {
	g := lattice.NewGaugeField(l)
	g.Randomize(seed)
	return g
}

func TestCGNEWilson(t *testing.T) {
	l := lattice.Shape4{4, 4, 4, 4}
	g := hotGauge(1, l)
	w := fermion.NewWilson(g, 0.5) // heavy mass: well conditioned
	b := lattice.NewFermionField(l)
	b.Gaussian(2)
	x := lattice.NewFermionField(l)
	res, err := SolveDirac(w, x, b, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.RelResidual > 1e-7 {
		t.Fatalf("true residual %g", res.RelResidual)
	}
	if res.Iterations == 0 {
		t.Fatal("zero iterations for a random right-hand side")
	}
	t.Logf("Wilson CG: %d iterations, residual %.2g", res.Iterations, res.RelResidual)
}

func TestCGNEClover(t *testing.T) {
	l := lattice.Shape4{4, 4, 4, 4}
	g := hotGauge(3, l)
	c := fermion.NewClover(g, 0.5, 1.0)
	b := lattice.NewFermionField(l)
	b.Gaussian(4)
	x := lattice.NewFermionField(l)
	res, err := SolveDirac(c, x, b, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelResidual > 1e-7 {
		t.Fatalf("residual %g", res.RelResidual)
	}
}

func TestCGNEStaggeredAndASQTAD(t *testing.T) {
	l := lattice.Shape4{4, 4, 4, 4}
	g := hotGauge(5, l)
	oneHop := fermion.NewASQTAD(g, 0.3)
	oneHop.Naik = 0
	for _, op := range []fermion.StaggeredOperator{oneHop, fermion.NewASQTAD(g, 0.3)} {
		b := lattice.NewColorField(l)
		b.Gaussian(6)
		x := lattice.NewColorField(l)
		res, err := SolveStaggered(op, x, b, 1e-8, 2000)
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		if res.RelResidual > 1e-7 {
			t.Fatalf("%s residual %g", op.Name(), res.RelResidual)
		}
	}
}

func TestCGNEDWF(t *testing.T) {
	l := lattice.Shape4{2, 2, 2, 4}
	g := hotGauge(7, l)
	d := fermion.NewDWF(g, 1.8, 0.1, 4)
	b := fermion.NewField5(l, 4)
	b.Gaussian(8)
	x := fermion.NewField5(l, 4)
	res, err := SolveDWF(d, x, b, 1e-8, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelResidual > 1e-7 {
		t.Fatalf("residual %g", res.RelResidual)
	}
}

func TestCGNEWarmStart(t *testing.T) {
	// Solving again from the previous solution converges immediately.
	l := lattice.Shape4{4, 4, 2, 2}
	g := hotGauge(9, l)
	w := fermion.NewWilson(g, 0.5)
	b := lattice.NewFermionField(l)
	b.Gaussian(10)
	x := lattice.NewFermionField(l)
	first, err := SolveDirac(w, x, b, 1e-10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SolveDirac(w, x, b, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if again.Iterations > first.Iterations/4 {
		t.Fatalf("warm start took %d iterations (cold: %d)", again.Iterations, first.Iterations)
	}
}

func TestCGNEMaxIterations(t *testing.T) {
	l := lattice.Shape4{4, 4, 4, 4}
	g := hotGauge(11, l)
	w := fermion.NewWilson(g, 0.5)
	b := lattice.NewFermionField(l)
	b.Gaussian(12)
	x := lattice.NewFermionField(l)
	_, err := SolveDirac(w, x, b, 1e-12, 3)
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
}

func TestCGNEZeroRHS(t *testing.T) {
	l := lattice.Shape4{2, 2, 2, 2}
	g := hotGauge(13, l)
	w := fermion.NewWilson(g, 0.5)
	b := lattice.NewFermionField(l)
	x := lattice.NewFermionField(l)
	x.Gaussian(14) // non-zero start must be reset
	res, err := SolveDirac(w, x, b, 1e-8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || x.Norm2() != 0 {
		t.Fatal("zero RHS should give zero solution")
	}
}

func TestIterationCountGrowsWithConditioning(t *testing.T) {
	// Lighter quark mass => worse conditioning => more CG iterations.
	// This is the physics behind the paper's focus on solver time.
	l := lattice.Shape4{4, 4, 4, 4}
	g := hotGauge(17, l)
	b := lattice.NewFermionField(l)
	b.Gaussian(18)
	iters := func(mass float64) int {
		w := fermion.NewWilson(g, mass)
		x := lattice.NewFermionField(l)
		res, err := SolveDirac(w, x, b, 1e-8, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations
	}
	heavy := iters(1.0)
	light := iters(0.2)
	if light <= heavy {
		t.Fatalf("lighter mass (%d iters) should need more than heavier (%d)", light, heavy)
	}
}
