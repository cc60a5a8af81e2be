package fermion

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/memsys"
	"qcdoc/internal/ppc440"
)

const tol = 1e-10

func testLattice() lattice.Shape4 { return lattice.Shape4{4, 4, 4, 4} }

func hotGauge(seed uint64) *lattice.GaugeField {
	g := lattice.NewGaugeField(testLattice())
	g.Randomize(seed)
	return g
}

// adjointnessDirac checks <u, D v> == <D† u, v> on random fields.
func adjointnessDirac(t *testing.T, op DiracOperator) {
	t.Helper()
	l := op.Lattice()
	u := lattice.NewFermionField(l)
	v := lattice.NewFermionField(l)
	u.Gaussian(11)
	v.Gaussian(22)
	Dv := lattice.NewFermionField(l)
	op.Apply(Dv, v)
	Du := lattice.NewFermionField(l)
	op.ApplyDag(Du, u)
	lhs := u.Dot(Dv)
	rhs := Du.Dot(v)
	if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(lhs)) {
		t.Fatalf("%s adjointness: <u,Dv>=%v, <D†u,v>=%v", op.Name(), lhs, rhs)
	}
}

func TestWilsonMassTerm(t *testing.T) {
	// On a cold gauge field, a constant spinor is an eigenvector with
	// eigenvalue m (the hopping term cancels exactly at p=0).
	l := testLattice()
	g := lattice.NewGaugeField(l)
	w := NewWilson(g, 0.3)
	src := lattice.NewFermionField(l)
	var s latmath.Spinor
	for a := 0; a < 4; a++ {
		for c := 0; c < 3; c++ {
			s[a][c] = complex(float64(a)+1, float64(c)-1)
		}
	}
	for i := range src.S {
		src.S[i] = s
	}
	dst := lattice.NewFermionField(l)
	w.Apply(dst, src)
	want := &lattice.FermionField{L: l, S: slices.Clone(src.S)}
	want.Scale(complex(0.3, 0))
	want.AXPY(-1, dst)
	if want.Norm2() > tol {
		t.Fatalf("constant field not eigenvector: residual %g", want.Norm2())
	}
}

func TestWilsonPlaneWaveEigenvalue(t *testing.T) {
	// Free Wilson operator on a plane wave ψ(x) = e^{ip·x} χ:
	// D ψ = [m + Σ_mu (1 - cos p_mu) + i Σ_mu γ_mu sin p_mu] ψ.
	l := testLattice()
	g := lattice.NewGaugeField(l)
	mass := 0.25
	w := NewWilson(g, mass)
	// Allowed momentum: p_mu = 2π n_mu / L_mu.
	n := [4]int{1, 0, 2, 3}
	var p [4]float64
	for mu := 0; mu < 4; mu++ {
		p[mu] = 2 * math.Pi * float64(n[mu]) / float64(l[mu])
	}
	var chi latmath.Spinor
	chi[0][0] = 1
	chi[1][2] = complex(0.5, -0.25)
	chi[3][1] = complex(-0.125, 1)
	src := lattice.NewFermionField(l)
	for idx := range src.S {
		x := l.SiteOf(idx)
		phase := 0.0
		for mu := 0; mu < 4; mu++ {
			phase += p[mu] * float64(x[mu])
		}
		src.S[idx] = chi.Scale(cmplx.Exp(complex(0, phase)))
	}
	dst := lattice.NewFermionField(l)
	w.Apply(dst, src)
	// Expected: [m + Σ(1-cos p)] ψ + i Σ sin p_mu (γ_mu ψ).
	scal := mass
	for mu := 0; mu < 4; mu++ {
		scal += 1 - math.Cos(p[mu])
	}
	want := lattice.NewFermionField(l)
	for idx := range src.S {
		out := src.S[idx].Scale(complex(scal, 0))
		for mu := 0; mu < 4; mu++ {
			gpsi := latmath.Gamma[mu].ApplySpin(src.S[idx])
			out = out.AXPY(complex(0, math.Sin(p[mu])), gpsi)
		}
		want.S[idx] = out
	}
	want.AXPY(-1, dst)
	if r := want.Norm2() / src.Norm2(); r > 1e-20 {
		t.Fatalf("plane-wave eigenvalue violated: relative residual %g", r)
	}
}

func TestWilsonGamma5Hermiticity(t *testing.T) {
	adjointnessDirac(t, NewWilson(hotGauge(1), 0.1))
}

func TestWilsonLinearity(t *testing.T) {
	l := testLattice()
	w := NewWilson(hotGauge(2), 0.05)
	x := lattice.NewFermionField(l)
	y := lattice.NewFermionField(l)
	x.Gaussian(3)
	y.Gaussian(4)
	a := complex(1.5, -0.5)
	// D(ax + y)
	comb := &lattice.FermionField{L: l, S: slices.Clone(x.S)}
	comb.Scale(a)
	comb.AXPY(1, y)
	lhs := lattice.NewFermionField(l)
	w.Apply(lhs, comb)
	// aDx + Dy
	dx := lattice.NewFermionField(l)
	dy := lattice.NewFermionField(l)
	w.Apply(dx, x)
	w.Apply(dy, y)
	dx.Scale(a)
	dx.AXPY(1, dy)
	dx.AXPY(-1, lhs)
	if dx.Norm2() > 1e-18*lhs.Norm2() {
		t.Fatalf("not linear: %g", dx.Norm2())
	}
}

func TestCloverReducesToWilsonOnColdField(t *testing.T) {
	// With F = 0 the clover term vanishes identically.
	l := testLattice()
	g := lattice.NewGaugeField(l)
	w := NewWilson(g, 0.2)
	c := NewClover(g, 0.2, 1.7)
	src := lattice.NewFermionField(l)
	src.Gaussian(5)
	dw := lattice.NewFermionField(l)
	dc := lattice.NewFermionField(l)
	w.Apply(dw, src)
	c.Apply(dc, src)
	dw.AXPY(-1, dc)
	if dw.Norm2() > tol {
		t.Fatalf("clover term nonzero on cold field: %g", dw.Norm2())
	}
}

func TestCloverGamma5Hermiticity(t *testing.T) {
	adjointnessDirac(t, NewClover(hotGauge(6), 0.1, 1.0))
}

func TestCloverDiffersFromWilsonOnHotField(t *testing.T) {
	g := hotGauge(7)
	w := NewWilson(g, 0.1)
	c := NewClover(g, 0.1, 1.0)
	src := lattice.NewFermionField(g.L)
	src.Gaussian(8)
	dw := lattice.NewFermionField(g.L)
	dc := lattice.NewFermionField(g.L)
	w.Apply(dw, src)
	c.Apply(dc, src)
	dw.AXPY(-1, dc)
	if dw.Norm2() < 1e-6 {
		t.Fatal("clover term vanished on a hot field")
	}
}

func TestCloverSpinBlockDiagonal(t *testing.T) {
	// In the chiral basis the clover term is two 6x6 blocks — the layout
	// the cost model's flop counts assume.
	c := NewClover(hotGauge(9), 0.1, 1.0)
	for idx := 0; idx < 8; idx++ {
		if !c.SpinBlockDiagonal(idx, 1e-12) {
			t.Fatalf("clover term not block diagonal at site %d", idx)
		}
	}
}

// oneHopStaggered is the ASQTAD operator without its Naik term: the
// one-hop staggered operator on fat links.
func oneHopStaggered(g *lattice.GaugeField, mass float64) *ASQTAD {
	a := NewASQTAD(g, mass)
	a.Naik = 0
	return a
}

func TestStaggeredMassTerm(t *testing.T) {
	// Free field, constant vector: hopping cancels, eigenvalue m.
	l := testLattice()
	g := lattice.NewGaugeField(l)
	s := oneHopStaggered(g, 0.4)
	src := lattice.NewColorField(l)
	for i := range src.V {
		src.V[i] = latmath.Vec3{1, complex(0, 1), complex(2, -1)}
	}
	dst := lattice.NewColorField(l)
	s.Apply(dst, src)
	want := &lattice.ColorField{L: l, V: slices.Clone(src.V)}
	want.Scale(complex(0.4, 0))
	want.AXPY(-1, dst)
	if want.Norm2() > tol {
		t.Fatalf("staggered mass term wrong: %g", want.Norm2())
	}
}

// adjointnessStaggered checks <u, D v> == <D† u, v>.
func adjointnessStaggered(t *testing.T, op StaggeredOperator) {
	t.Helper()
	l := op.Lattice()
	u := lattice.NewColorField(l)
	v := lattice.NewColorField(l)
	u.Gaussian(31)
	v.Gaussian(32)
	Dv := lattice.NewColorField(l)
	op.Apply(Dv, v)
	Du := lattice.NewColorField(l)
	op.ApplyDag(Du, u)
	lhs := u.Dot(Dv)
	rhs := Du.Dot(v)
	if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(lhs)) {
		t.Fatalf("%s adjointness: %v vs %v", op.Name(), lhs, rhs)
	}
}

func TestStaggeredAntiHermiticity(t *testing.T) {
	// The hopping part is anti-Hermitian: for m=0, <u,Dv> = -<Dv... i.e.
	// <u,Dv> = -conj(<v,Du>), with and without the Naik term.
	g := hotGauge(10)
	for _, s := range []*ASQTAD{oneHopStaggered(g, 0), NewASQTAD(g, 0)} {
		u := lattice.NewColorField(g.L)
		v := lattice.NewColorField(g.L)
		u.Gaussian(33)
		v.Gaussian(34)
		Dv := lattice.NewColorField(g.L)
		Du := lattice.NewColorField(g.L)
		s.Apply(Dv, v)
		s.Apply(Du, u)
		lhs := u.Dot(Dv)
		rhs := -cmplx.Conj(v.Dot(Du))
		if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(lhs)) {
			t.Fatalf("hopping not anti-Hermitian (Naik %g): %v vs %v", s.Naik, lhs, rhs)
		}
	}
	adjointnessStaggered(t, oneHopStaggered(g, 0.17))
}

func TestASQTADColdReducesToMass(t *testing.T) {
	// Cold field: fat links are unit (coefficients normalized), long
	// links unit, and both hopping terms cancel on a constant field.
	l := testLattice()
	g := lattice.NewGaugeField(l)
	a := NewASQTAD(g, 0.3)
	// Fat links must be exactly unit on a cold configuration.
	if d := a.Fat.Link(lattice.Site{1, 2, 0, 3}, 2).FrobeniusDistance(latmath.Identity3()); d > tol {
		t.Fatalf("cold fat link distance from identity: %g", d)
	}
	if d := a.Long.Link(lattice.Site{0, 0, 1, 1}, 0).FrobeniusDistance(latmath.Identity3()); d > tol {
		t.Fatalf("cold long link distance from identity: %g", d)
	}
	src := lattice.NewColorField(l)
	for i := range src.V {
		src.V[i] = latmath.Vec3{complex(0.5, 1), 2, complex(-1, 0.25)}
	}
	dst := lattice.NewColorField(l)
	a.Apply(dst, src)
	want := &lattice.ColorField{L: l, V: slices.Clone(src.V)}
	want.Scale(complex(0.3, 0))
	want.AXPY(-1, dst)
	if want.Norm2() > tol {
		t.Fatalf("cold ASQTAD != mass term: %g", want.Norm2())
	}
}

func TestASQTADAdjointness(t *testing.T) {
	adjointnessStaggered(t, NewASQTAD(hotGauge(12), 0.11))
}

func TestASQTADNaikTermActive(t *testing.T) {
	// On a hot field the Naik term must contribute: compare against a
	// fat-only operator.
	g := hotGauge(13)
	a, noNaik := NewASQTAD(g, 0.1), oneHopStaggered(g, 0.1)
	src := lattice.NewColorField(g.L)
	src.Gaussian(35)
	d1 := lattice.NewColorField(g.L)
	d2 := lattice.NewColorField(g.L)
	a.Apply(d1, src)
	noNaik.Apply(d2, src)
	d1.AXPY(-1, d2)
	if d1.Norm2() < 1e-8 {
		t.Fatal("Naik term inactive")
	}
}

func TestDWFLsOneClosedForm(t *testing.T) {
	// With Ls=1 both fifth-dimension hops hit the boundary:
	// D = D_W(-M5) + (1 + m_f).
	l := testLattice()
	g := hotGauge(14)
	m5, mf := 1.8, 0.04
	d := NewDWF(g, m5, mf, 1)
	src5 := NewField5(l, 1)
	src5.Gaussian(41)
	dst5 := NewField5(l, 1)
	d.Apply(dst5, src5)
	// Reference: Wilson at mass -M5 plus (1+mf).
	w := NewWilson(g, -m5)
	src4 := &lattice.FermionField{L: l, S: src5.S}
	want4 := lattice.NewFermionField(l)
	w.Apply(want4, src4)
	want4.AXPY(complex(1+mf, 0), src4)
	got4 := &lattice.FermionField{L: l, S: dst5.S}
	want4.AXPY(-1, got4)
	if want4.Norm2() > 1e-18*src5.Norm2() {
		t.Fatalf("Ls=1 closed form violated: %g", want4.Norm2())
	}
}

func TestDWFAdjointness(t *testing.T) {
	g := hotGauge(15)
	d := NewDWF(g, 1.8, 0.08, 4)
	u := NewField5(g.L, 4)
	v := NewField5(g.L, 4)
	u.Gaussian(51)
	v.Gaussian(52)
	Dv := NewField5(g.L, 4)
	d.Apply(Dv, v)
	Du := NewField5(g.L, 4)
	d.ApplyDag(Du, u)
	lhs := u.Dot(Dv)
	rhs := Du.Dot(v)
	if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(lhs)) {
		t.Fatalf("DWF adjointness: %v vs %v", lhs, rhs)
	}
}

func TestDWFChiralProjectors(t *testing.T) {
	// P+ + P- = 1, P±² = P±, P+P- = 0.
	var s latmath.Spinor
	s[0][0] = complex(1, 2)
	s[2][1] = complex(-0.5, 0.25)
	s[3][2] = 4
	sum := projPlus(s).Add(projMinus(s))
	if sum.Sub(s).Norm2() > tol {
		t.Fatal("P+ + P- != 1")
	}
	if projPlus(projPlus(s)).Sub(projPlus(s)).Norm2() > tol {
		t.Fatal("P+ not idempotent")
	}
	if projMinus(projPlus(s)).Norm2() > tol {
		t.Fatal("P- P+ != 0")
	}
}

func TestCostAnchors(t *testing.T) {
	// E1/E2/E3/E15 at the model level: the calibrated per-site costs land
	// on the paper's measured efficiencies (§4) and the predicted
	// orderings hold.
	cpu := ppc440.Default()
	eff := func(k OpKind, p Precision, lvl memsys.Level) float64 {
		return cpu.Efficiency(SiteCost(k, p, lvl))
	}
	cases := []struct {
		kind     OpKind
		want, hi float64
	}{
		{WilsonKind, 0.39, 0.41},   // paper: 40%
		{AsqtadKind, 0.37, 0.39},   // paper: 38%
		{CloverKind, 0.455, 0.475}, // paper: 46.5%
	}
	for _, c := range cases {
		got := eff(c.kind, Double, memsys.EDRAM)
		if got < c.want || got > c.hi {
			t.Errorf("%v DP efficiency = %.3f, want in [%.3f, %.3f]", c.kind, got, c.want, c.hi)
		}
	}
	// DWF surpasses clover (§4's forecast, E15).
	if eff(DWFKind, Double, memsys.EDRAM) <= eff(CloverKind, Double, memsys.EDRAM) {
		t.Error("DWF does not surpass clover")
	}
	// DDR spill lands near 30% for Wilson (E2).
	if got := eff(WilsonKind, Double, memsys.DDR); got < 0.28 || got > 0.32 {
		t.Errorf("Wilson DDR efficiency = %.3f, want ~0.30", got)
	}
	// Single precision slightly higher than double (E3).
	dp := eff(WilsonKind, Double, memsys.EDRAM)
	sp := eff(WilsonKind, Single, memsys.EDRAM)
	if sp <= dp || sp > dp+0.05 {
		t.Errorf("SP %.3f should be slightly above DP %.3f", sp, dp)
	}
	// CG efficiency tracks the dslash efficiency.
	cycles := CGIterationCycles(cpu, WilsonKind, Double, memsys.EDRAM)
	cg := CGIterationFlopsPerSite(WilsonKind) / (ppc440.FlopsPerCycle * cycles)
	if math.Abs(cg-dp) > 0.03 {
		t.Errorf("CG efficiency %.3f far from dslash %.3f", cg, dp)
	}
}

func TestWorkingSetLevels(t *testing.T) {
	// §4: 4^4 and 6^4 fit in EDRAM for Wilson; 8^4 spills to DDR.
	if WorkingSetLevel(WilsonKind, Double, 4*4*4*4) != memsys.EDRAM {
		t.Error("4^4 should be EDRAM resident")
	}
	if WorkingSetLevel(WilsonKind, Double, 6*6*6*6) != memsys.EDRAM {
		t.Error("6^4 should be EDRAM resident")
	}
	if WorkingSetLevel(WilsonKind, Double, 8*8*8*8) != memsys.DDR {
		t.Error("8^4 should spill to DDR")
	}
}

func TestCommBytes(t *testing.T) {
	// A Wilson halo ships one half spinor per face site: 12 complex
	// doubles = 192 bytes... no: 12 complex = 24 reals = 192? A half
	// spinor is 2 spin x 3 color = 6 complex = 12 reals = 96 bytes DP.
	if got := CommBytesPerFaceSite(WilsonKind, Double); got != 96 {
		t.Fatalf("Wilson comm bytes = %v, want 96", got)
	}
	if got := CommBytesPerFaceSite(WilsonKind, Single); got != 48 {
		t.Fatalf("Wilson SP comm bytes = %v", got)
	}
	// ASQTAD needs third-neighbour data: three layers of color vectors.
	if got := CommBytesPerFaceSite(AsqtadKind, Double); got != 144 {
		t.Fatalf("ASQTAD comm bytes = %v, want 144", got)
	}
}

func TestDWFCostLsDependence(t *testing.T) {
	// Larger Ls amortizes gauge traffic: bytes fall, efficiency rises
	// (or saturates at the compute bound).
	b8 := DWFSiteCost(Double, memsys.EDRAM, 8).Bytes()
	b32 := DWFSiteCost(Double, memsys.EDRAM, 32).Bytes()
	if b32 >= b8 {
		t.Fatalf("Ls=32 bytes %v not below Ls=8 bytes %v", b32, b8)
	}
}

// TestKernelNames holds the cost descriptors' kernel names — the keys
// of a node's cycles-by-kernel telemetry — to "<kind>-<kernel>-<prec>",
// and building a descriptor to no allocation.
func TestKernelNames(t *testing.T) {
	for _, kind := range Kinds() {
		for _, prec := range []Precision{Double, Single} {
			for _, c := range []struct {
				what string
				cost ppc440.KernelCost
			}{
				{"dslash", SiteCost(kind, prec, memsys.EDRAM)},
				{"axpy", AXPYCost(kind, prec, memsys.DDR)},
				{"dot", DotCost(kind, prec, memsys.EDRAM)},
			} {
				if want := fmt.Sprintf("%s-%s-%s", kind, c.what, prec); c.cost.Name != want {
					t.Errorf("%s name %q, want %q", c.what, c.cost.Name, want)
				}
			}
		}
	}
	if got := DWFSiteCost(Single, memsys.EDRAM, 8).Name; got != "dwf-dslash-single" {
		t.Errorf("DWFSiteCost name %q", got)
	}
	if n := testing.AllocsPerRun(10, func() {
		SiteCost(CloverKind, Double, memsys.EDRAM)
		AXPYCost(AsqtadKind, Single, memsys.DDR)
		DotCost(DWFKind, Double, memsys.EDRAM)
	}); n != 0 {
		t.Errorf("cost descriptors allocate %v objects", n)
	}
}
