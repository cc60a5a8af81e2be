package fermion

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/rng"
	"qcdoc/internal/team"
)

// The by-value site loops as they stood before the ranged kernels, kept
// as the oracle with their expressions verbatim (the hop and the fifth-
// dimension loop now take D†'s sign too): every pinned digest in the
// tree was produced by these expressions, so a kernel must equal them
// bit for bit, at any team width.

// projPlus applies P_+ = (1+γ5)/2.
func projPlus(s latmath.Spinor) latmath.Spinor {
	g5 := latmath.Gamma5.ApplySpin(s)
	return s.Add(g5).Scale(0.5)
}

// projMinus applies P_- = (1-γ5)/2.
func projMinus(s latmath.Spinor) latmath.Spinor {
	g5 := latmath.Gamma5.ApplySpin(s)
	return s.Sub(g5).Scale(0.5)
}

// refAddFifthDimHops adds -P_- src(s+step) - P_+ src(s-step), a hop off
// either end re-entering on the other with factor mf; step is +1 for D
// and -1 for D†.
func refAddFifthDimHops(dst, src []latmath.Spinor, v4, ls int, mf float64, step int) {
	m := complex(mf, 0)
	for s := 0; s < ls; s++ {
		for idx := 0; idx < v4; idx++ {
			out := dst[s*v4+idx]
			if fwd := s + step; fwd >= 0 && fwd < ls {
				out = out.Sub(projMinus(src[fwd*v4+idx]))
			} else {
				out = out.AXPY(m, projMinus(src[(fwd+ls)%ls*v4+idx]))
			}
			if back := s - step; back >= 0 && back < ls {
				out = out.Sub(projPlus(src[back*v4+idx]))
			} else {
				out = out.AXPY(m, projPlus(src[(back+ls)%ls*v4+idx]))
			}
			dst[s*v4+idx] = out
		}
	}
}

func refReflectGamma5(dst, src []latmath.Spinor, ls int) {
	v := len(src) / ls
	for s := 0; s < ls; s++ {
		to, from := dst[s*v:(s+1)*v], src[(ls-1-s)*v:(ls-s)*v]
		for i := range to {
			to[i] = latmath.Gamma5.ApplySpin(from[i])
		}
	}
}

func refCloverAddTo(t *CloverTerm, dst, src []latmath.Spinor) {
	for idx := range t.Site {
		blocks, psi := &t.Site[idx], &src[idx]
		var extra latmath.Spinor
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if !t.live[a][b] {
					continue
				}
				var v latmath.Vec3
				v.MulMat(&blocks[a][b], &psi[b])
				extra[a] = extra[a].Add(v)
			}
		}
		dst[idx] = dst[idx].Add(extra)
	}
}

// refHop adds one neighbour's hopping term to acc through the by-value
// steps: project with sign s, carry by u (dir = +1) or u† (dir = -1),
// reconstruct.
func refHop(acc latmath.Spinor, mu, s, dir int, u latmath.Mat3, psi latmath.Spinor) latmath.Spinor {
	h := latmath.Project(mu, s, psi)
	if dir > 0 {
		h = latmath.HalfSpinor{u.MulVec(h[0]), u.MulVec(h[1])}
	} else {
		h = latmath.HalfSpinor{u.DagMulVec(h[0]), u.DagMulVec(h[1])}
	}
	return acc.Add(latmath.Reconstruct(mu, s, h))
}

// refHopSlices is the hop with projector sign sign as Ls separate
// per-slice site loops.
func refHopSlices(dst, src []latmath.Spinor, g *lattice.GaugeField, nb lattice.Neighbors, ls int, diag complex128, sign int) {
	v4 := g.L.Volume()
	for s := 0; s < ls; s++ {
		d, f := dst[s*v4:(s+1)*v4], src[s*v4:(s+1)*v4]
		for idx := range d {
			var acc latmath.Spinor
			for mu := 0; mu < lattice.Ndim; mu++ {
				up, dn := nb[idx][mu], nb[idx][lattice.Ndim+mu]
				acc = refHop(acc, mu, sign, +1, g.U[lattice.Ndim*idx+mu], f[up])
				acc = refHop(acc, mu, -sign, -1, g.U[lattice.Ndim*int(dn)+mu], f[dn])
			}
			d[idx].HopResult(diag, &f[idx], &acc)
		}
	}
}

// refStaggered is the ASQTAD site loop by value on coordinates, in the
// summation order StaggeredKernel states.
func refStaggered(dst, src []latmath.Vec3, a *ASQTAD) {
	l := a.G.L
	cn := complex(a.Naik, 0)
	for idx := range dst {
		x := l.SiteOf(idx)
		acc := src[idx].Scale(complex(a.Mass, 0))
		for mu := 0; mu < lattice.Ndim; mu++ {
			at := func(k int) latmath.Vec3 { return src[l.Index(l.Hop(x, mu, k))] }
			hop := a.Fat.Link(x, mu).MulVec(at(1)).Add(a.Long.Link(x, mu).MulVec(at(3)).Scale(cn))
			bwd := a.Fat.Link(l.Hop(x, mu, -1), mu).DagMulVec(at(-1)).
				Add(a.Long.Link(l.Hop(x, mu, -3), mu).DagMulVec(at(-3)).Scale(cn))
			eta := 0.5
			for nu := 0; nu < mu; nu++ {
				if x[nu]%2 == 1 {
					eta = -eta
				}
			}
			acc = acc.Add(hop.Sub(bwd).Scale(complex(eta, 0)))
		}
		dst[idx] = acc
	}
}

// testSpinors returns n+2 spinors, the first and last a NaN sentinel no
// kernel may touch, the n between them per kind: Gaussian noise, or the
// inputs on which an algebraic shortcut shows — zeros of both signs,
// denormals and all-zero sites among noise (a CG starts from the zero
// vector, and that goes through γ5).
func testSpinors(n int, seed uint64, adversarial bool) []latmath.Spinor {
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, 5e-324, -5e-324, 1, -1}
	out := make([]latmath.Spinor, n+2)
	for i := range out {
		st := rng.New(seed, uint64(i))
		out[i] = latmath.GaussianSpinor(st)
		if !adversarial || i%3 == 2 {
			continue
		}
		for a := range out[i] {
			for c := range out[i][a] {
				switch {
				case i%3 == 0: // an all-zero site, signs mixed
					out[i][a][c] = complex(specials[(i+a)%2], specials[(i+c)%2])
				case (i+a+c)%2 == 0:
					out[i][a][c] = complex(specials[(i+a)%6], specials[(i+2*c)%6])
				}
			}
		}
	}
	for _, guard := range []*latmath.Spinor{&out[0], &out[n+1]} {
		for a := range guard {
			for c := range guard[a] {
				guard[a][c] = complex(math.NaN(), math.NaN())
			}
		}
	}
	return out
}

// sameSpinors reports whether a and b hold the same IEEE bit patterns.
func sameSpinors(a, b []latmath.Spinor) bool {
	bits := math.Float64bits
	for i := range a {
		for s := range a[i] {
			for c, x := range a[i][s] {
				y := b[i][s][c]
				if bits(real(x)) != bits(real(y)) || bits(imag(x)) != bits(imag(y)) {
					return false
				}
			}
		}
	}
	return len(a) == len(b)
}

// testVecs and sameVecs are testSpinors and sameSpinors for colour
// vectors: spin component 1 of the test spinors.
func testVecs(n int, seed uint64, adversarial bool) []latmath.Vec3 {
	var v []latmath.Vec3
	for _, s := range testSpinors(n, seed, adversarial) {
		v = append(v, s[1])
	}
	return v
}

func sameVecs(a, b []latmath.Vec3) bool {
	as, bs := make([]latmath.Spinor, len(a)), make([]latmath.Spinor, len(b))
	for i := range a {
		as[i][1] = a[i]
	}
	for i := range b {
		bs[i][1] = b[i]
	}
	return sameSpinors(as, bs)
}

// vecCase runs a colour-vector kernel and its oracle as a rangedCase, on
// spin component 1 of the spinors; the other components stay as they are.
func vecCase(name string, run, ref func(tm *team.Team, dst, src []latmath.Vec3)) rangedCase {
	onVecs := func(f func(tm *team.Team, dst, src []latmath.Vec3)) func(tm *team.Team, dst, src []latmath.Spinor) {
		return func(tm *team.Team, dst, src []latmath.Spinor) {
			d, s := make([]latmath.Vec3, len(dst)), make([]latmath.Vec3, len(src))
			for i := range dst {
				d[i], s[i] = dst[i][1], src[i][1]
			}
			f(tm, d, s)
			for i := range dst {
				dst[i][1] = d[i]
			}
		}
	}
	return rangedCase{name, onVecs(run), onVecs(ref)}
}

func clone(s []latmath.Spinor) []latmath.Spinor { return append([]latmath.Spinor(nil), s...) }

// rangedCase is one replaced site loop: run applies the kernel to the n
// spinors dst[1:n+1] on tm, ref the by-value loop.
type rangedCase struct {
	name     string
	run, ref func(tm *team.Team, dst, src []latmath.Spinor)
}

func blasCases() []rangedCase {
	a := complex(0.37, -1.2)
	field := func(s []latmath.Spinor) *lattice.FermionField { return &lattice.FermionField{S: s} }
	return []rangedCase{
		{"FermionField.AXPY", func(tm *team.Team, dst, src []latmath.Spinor) {
			tm.Run(len(dst), &axpyKernel{field(dst), field(src), a})
		}, func(_ *team.Team, dst, src []latmath.Spinor) {
			for i := range dst {
				dst[i] = dst[i].AXPY(a, src[i])
			}
		}},
		{"FermionField.Scale", func(tm *team.Team, dst, src []latmath.Spinor) {
			tm.Run(len(dst), &scaleKernel{field(dst), a})
		}, func(_ *team.Team, dst, src []latmath.Spinor) {
			for i := range dst {
				dst[i] = dst[i].Scale(a)
			}
		}},
		{"Field5.AXPY", func(tm *team.Team, dst, src []latmath.Spinor) {
			tm.Run(len(dst), &axpy5Kernel{&Field5{S: dst}, &Field5{S: src}, a})
		}, func(_ *team.Team, dst, src []latmath.Spinor) {
			for i := range dst {
				dst[i] = dst[i].AXPY(a, src[i])
			}
		}},
	}
}

// The field-level BLAS of a solver space, as the kernels core runs.
type axpyKernel struct {
	y, x *lattice.FermionField
	a    complex128
}

func (k *axpyKernel) Range(lo, hi int) { k.y.AXPYRange(lo, hi, k.a, k.x) }

type scaleKernel struct {
	y *lattice.FermionField
	a complex128
}

func (k *scaleKernel) Range(lo, hi int) { k.y.ScaleRange(lo, hi, k.a) }

type axpy5Kernel struct {
	y, x *Field5
	a    complex128
}

func (k *axpy5Kernel) Range(lo, hi int) { k.y.AXPYRange(lo, hi, k.a, k.x) }

// checkColorBLAS is checkCase for the staggered field's AXPY and Scale,
// on the colour vectors of the same test spinors.
func checkColorBLAS(t *testing.T, width, n int, adversarial bool) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	var tm team.Team
	defer tm.Close()
	a := complex(0.37, -1.2)
	src, got, want := testVecs(n, 71, adversarial), testVecs(n, 72, adversarial), testVecs(n, 72, adversarial)
	y, x := &lattice.ColorField{V: got[1 : n+1]}, &lattice.ColorField{V: src[1 : n+1]}
	tm.Run(n, &colorKernel{y, x, a})
	for i := 1; i <= n; i++ {
		want[i] = want[i].AXPY(a, src[i]).Scale(a)
	}
	if !sameVecs(got, want) {
		t.Fatalf("ColorField AXPY then Scale, width %d, n %d, adversarial %v: differs from the by-value loop", width, n, adversarial)
	}
}

// colorKernel is an AXPY followed by a Scale of the same sites.
type colorKernel struct {
	y, x *lattice.ColorField
	a    complex128
}

func (k *colorKernel) Range(lo, hi int) {
	k.y.AXPYRange(lo, hi, k.a, k.x)
	k.y.ScaleRange(lo, hi, k.a)
}

// sliceCases are the kernels over Ls slices of v4 sites; n = ls·v4.
func sliceCases(ls int) []rangedCase {
	fifth := func(name string, step int) rangedCase {
		return rangedCase{name, func(tm *team.Team, dst, src []latmath.Spinor) {
			new(FifthDimKernel).Run(tm, dst, src, ls, 0.05, step)
		}, func(_ *team.Team, dst, src []latmath.Spinor) {
			refAddFifthDimHops(dst, src, len(dst)/ls, ls, 0.05, step)
		}}
	}
	return []rangedCase{fifth("FifthDimKernel", +1), fifth("FifthDimKernel dag", -1)}
}

// checkCase runs c and its oracle on identical inputs, on a team of the
// given width, and demands identical bits, sentinels included.
func checkCase(t *testing.T, c rangedCase, width, n int, adversarial bool) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	var tm team.Team
	defer tm.Close()
	src := testSpinors(n, 71, adversarial)
	got := testSpinors(n, 72, adversarial)
	want := clone(got)
	c.run(&tm, got[1:n+1], src[1:n+1])
	c.ref(nil, want[1:n+1], src[1:n+1])
	if !sameSpinors(got, want) {
		t.Errorf("%s, width %d, n %d, adversarial %v: differs from the by-value loop", c.name, width, n, adversarial)
	}
}

// TestRangedKernelsMatchByValue holds every ranged kernel to the
// by-value site loop it replaced: Float64bits equal on Gaussian fields
// and on fields seeded with signed zeros, denormals and all-zero sites,
// at team widths 1, 2, 3 and 7, with n one under, at and one over the
// grain and the fork threshold, and n the width does not divide.
func TestRangedKernelsMatchByValue(t *testing.T) {
	g := team.Grain
	sizes := []int{g - 1, g, g + 1, 2*g - 1, 2 * g, 2*g + 1, 7*g + 5}
	for _, width := range []int{1, 2, 3, 7} {
		for _, adversarial := range []bool{false, true} {
			for _, n := range sizes {
				for _, c := range blasCases() {
					checkCase(t, c, width, n, adversarial)
				}
				for _, c := range sliceCases(1) {
					checkCase(t, c, width, n, adversarial)
				}
				checkColorBLAS(t, width, n, adversarial)
			}
			// Ls slices: n = ls·v4 with v4 around the grain, so chunk
			// boundaries fall inside slices and on them.
			for _, ls := range []int{2, 3, 8} {
				for _, v4 := range []int{g/2 + 1, g, g + 1} {
					for _, c := range sliceCases(ls) {
						checkCase(t, c, width, ls*v4, adversarial)
					}
				}
			}
		}
	}

	// The hop, the clover term and the staggered kernel need a real
	// lattice: 7744 sites, which 3 and 7 do not divide; the domain-wall
	// hop runs 2 slices of it.
	l := lattice.Shape4{8, 8, 11, 11}
	gauge := lattice.NewGaugeField(l)
	gauge.Randomize(73)
	clover := NewClover(gauge, 0.2, 1.3)
	asqtad := NewASQTAD(gauge, 0.3)
	v4, diag := l.Volume(), complex(4.3, 0)
	hop := func(ls, sign int) rangedCase {
		return rangedCase{"HopKernel", func(tm *team.Team, dst, src []latmath.Spinor) {
			(&HopKernel{G: gauge, Nb: clover.hop.Nb}).Run(tm, dst, src, diag, sign)
		}, func(_ *team.Team, dst, src []latmath.Spinor) {
			refHopSlices(dst, src, gauge, clover.hop.Nb, ls, diag, sign)
		}}
	}
	term := rangedCase{"CloverTerm.AddTo", func(tm *team.Team, dst, src []latmath.Spinor) {
		clover.term.AddTo(tm, dst, src)
	}, func(_ *team.Team, dst, src []latmath.Spinor) { refCloverAddTo(clover.term, dst, src) }}
	staggered := vecCase("StaggeredKernel", func(tm *team.Team, dst, src []latmath.Vec3) {
		asqtad.sites.Run(tm, dst, src, asqtad.Mass, asqtad.Naik)
	}, func(_ *team.Team, dst, src []latmath.Vec3) { refStaggered(dst, src, asqtad) })
	for _, width := range []int{1, 2, 3, 7} {
		for _, adversarial := range []bool{false, true} {
			for _, sign := range []int{+1, -1} {
				checkCase(t, hop(1, sign), width, v4, adversarial)
				checkCase(t, hop(2, sign), width, 2*v4, adversarial)
			}
			checkCase(t, term, width, v4, adversarial)
			checkCase(t, staggered, width, v4, adversarial)
		}
	}
}

// TestRangedOracleCatchesChunkSlips is the mutation check on the test
// itself: a kernel that stops each chunk a site short (the fifth-
// dimension and the staggered kernel), and a D† fifth-dimension hop that
// steps the way D's does, must fail the comparison once the loop forks.
// (That chunks never overlap is the team's own visit-count test; an
// overlapping mutant here would race.)
func TestRangedOracleCatchesChunkSlips(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	const ls, mf = 5, 0.05
	v4 := team.Grain - 3
	n := ls * v4
	mutants := map[string]func(k *FifthDimKernel, lo, hi int){
		"one short":      func(k *FifthDimKernel, lo, hi int) { k.Range(lo, hi-1) },
		"wrong step way": func(k *FifthDimKernel, lo, hi int) { (&FifthDimKernel{k.dst, k.src, -k.step, k.m}).Range(lo, hi) },
	}
	for name, mutant := range mutants {
		var tm team.Team
		src, got := testSpinors(n, 71, true), testSpinors(n, 72, true)
		want := clone(got)
		k := &mutantKernel{FifthDimKernel{got[1 : n+1], src[1 : n+1], -v4, complex(mf, 0)}, mutant}
		tm.Run(n, k)
		tm.Close()
		refAddFifthDimHops(want[1:n+1], src[1:n+1], v4, ls, mf, -1)
		if sameSpinors(got, want) {
			t.Errorf("mutant %q passes the oracle", name)
		}
	}

	l := lattice.Shape4{8, 8, 8, 6}
	gauge := lattice.NewGaugeField(l)
	gauge.Randomize(74)
	a := NewASQTAD(gauge, 0.3)
	v := l.Volume()
	src, got := testVecs(v, 71, true), testVecs(v, 72, true)
	want := append([]latmath.Vec3(nil), got...)
	k := a.sites
	k.dst, k.src, k.mass, k.naik = got[1:v+1], src[1:v+1], complex(a.Mass, 0), complex(a.Naik, 0)
	var tm team.Team
	tm.Run(v, shortStaggered{&k})
	tm.Close()
	refStaggered(want[1:v+1], src[1:v+1], a)
	if sameVecs(got, want) {
		t.Error(`staggered mutant "one short" passes the oracle`)
	}
}

type shortStaggered struct{ *StaggeredKernel }

func (k shortStaggered) Range(lo, hi int) { k.StaggeredKernel.Range(lo, hi-1) }

type mutantKernel struct {
	FifthDimKernel
	mutant func(k *FifthDimKernel, lo, hi int)
}

func (k *mutantKernel) Range(lo, hi int) { k.mutant(&k.FifthDimKernel, lo, hi) }

// TestApplyDagMatchesGamma5Route holds every Wilson-type D† to the route
// it replaced, R γ5 D γ5 R by value (R reflects the fifth dimension, the
// identity at Ls = 1), in every float64 bit: Wilson, clover and domain
// wall at Ls 1, 2 and 5, on a Gaussian and a point source, run serially
// and forked at team widths 1, 2, 3 and 7.
func TestApplyDagMatchesGamma5Route(t *testing.T) {
	l := lattice.Shape4{8, 8, 11, 11}
	v4 := l.Volume()
	gauge := lattice.NewGaugeField(l)
	gauge.Randomize(75)
	type op struct {
		name       string
		ls         int
		setTeam    func(tm *team.Team)
		apply, dag func(dst, src []latmath.Spinor)
	}
	field := func(s []latmath.Spinor) *lattice.FermionField { return &lattice.FermionField{L: l, S: s} }
	wilson, clover := NewWilson(gauge, 0.1), NewClover(gauge, 0.1, 1.3)
	ops := []op{
		{"wilson", 1, func(tm *team.Team) { wilson.Team = tm },
			func(d, s []latmath.Spinor) { wilson.Apply(field(d), field(s)) },
			func(d, s []latmath.Spinor) { wilson.ApplyDag(field(d), field(s)) }},
		{"clover", 1, func(tm *team.Team) { clover.Team = tm },
			func(d, s []latmath.Spinor) { clover.Apply(field(d), field(s)) },
			func(d, s []latmath.Spinor) { clover.ApplyDag(field(d), field(s)) }},
	}
	for _, ls := range []int{1, 2, 5} {
		dwf := NewDWF(gauge, 1.8, 0.05, ls)
		f5 := func(s []latmath.Spinor) *Field5 { return &Field5{L: l, Ls: ls, S: s} }
		ops = append(ops, op{fmt.Sprintf("dwf Ls %d", ls), ls, func(tm *team.Team) { dwf.Team = tm },
			func(d, s []latmath.Spinor) { dwf.Apply(f5(d), f5(s)) },
			func(d, s []latmath.Spinor) { dwf.ApplyDag(f5(d), f5(s)) }})
	}
	check := func(tm *team.Team, mode string) {
		for _, o := range ops {
			o.setTeam(tm)
			n := o.ls * v4
			point := make([]latmath.Spinor, n)
			point[(o.ls/2)*v4+37][2][1] = 1
			for name, src := range map[string][]latmath.Spinor{"Gaussian": testSpinors(n, 76, false)[1 : n+1], "point": point} {
				got, tmp, mid, want := make([]latmath.Spinor, n), make([]latmath.Spinor, n), make([]latmath.Spinor, n), make([]latmath.Spinor, n)
				o.dag(got, src)
				refReflectGamma5(tmp, src, o.ls)
				o.apply(mid, tmp)
				refReflectGamma5(want, mid, o.ls)
				if !sameSpinors(got, want) {
					t.Errorf("%s, %s, %s source: D† differs from R γ5 D γ5 R", o.name, mode, name)
				}
			}
			o.setTeam(nil)
		}
	}
	check(nil, "serial")
	for _, width := range []int{1, 2, 3, 7} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
			var tm team.Team
			defer tm.Close()
			check(&tm, fmt.Sprintf("forked at width %d", width))
		}()
	}
}
