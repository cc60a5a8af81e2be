package fermion

import (
	"math"
	"runtime"
	"testing"

	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/rng"
	"qcdoc/internal/team"
)

// The by-value site loops as they stood before the ranged kernels, kept
// verbatim as the oracle: every pinned digest in the tree was produced
// by these expressions, so a kernel must equal them bit for bit, at any
// team width.

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

func refAddFifthDimHops(dst, src []latmath.Spinor, v4, ls int, mf float64) {
	m := complex(mf, 0)
	for s := 0; s < ls; s++ {
		for idx := 0; idx < v4; idx++ {
			out := dst[s*v4+idx]
			if up := s + 1; up < ls {
				out = out.Sub(projMinus(src[up*v4+idx]))
			} else {
				out = out.AXPY(m, projMinus(src[idx]))
			}
			if dn := s - 1; dn >= 0 {
				out = out.Sub(projPlus(src[dn*v4+idx]))
			} else {
				out = out.AXPY(m, projPlus(src[(ls-1)*v4+idx]))
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
// steps: project, carry by u (s = +1) or u† (s = -1), reconstruct.
func refHop(acc latmath.Spinor, mu, s int, u latmath.Mat3, psi latmath.Spinor) latmath.Spinor {
	h := latmath.Project(mu, s, psi)
	if s > 0 {
		h = latmath.HalfSpinor{u.MulVec(h[0]), u.MulVec(h[1])}
	} else {
		h = latmath.HalfSpinor{u.DagMulVec(h[0]), u.DagMulVec(h[1])}
	}
	return acc.Add(latmath.Reconstruct(mu, s, h))
}

// refHopSlices is the hop as Ls separate per-slice site loops.
func refHopSlices(dst, src []latmath.Spinor, g *lattice.GaugeField, nb *lattice.Neighbors, ls int, diag complex128) {
	v4 := g.L.Volume()
	for s := 0; s < ls; s++ {
		d, f := dst[s*v4:(s+1)*v4], src[s*v4:(s+1)*v4]
		for idx := range d {
			var acc latmath.Spinor
			for mu := 0; mu < lattice.Ndim; mu++ {
				up, dn := nb.Up[mu][idx], nb.Dn[mu][idx]
				acc = refHop(acc, mu, +1, g.U[lattice.Ndim*idx+mu], f[up])
				acc = refHop(acc, mu, -1, g.U[lattice.Ndim*int(dn)+mu], f[dn])
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
	return []rangedCase{
		{"Gamma5Kernel", func(tm *team.Team, dst, src []latmath.Spinor) {
			new(Gamma5Kernel).Run(tm, dst, src, ls)
		}, func(_ *team.Team, dst, src []latmath.Spinor) { refReflectGamma5(dst, src, ls) }},
		{"FifthDimKernel", func(tm *team.Team, dst, src []latmath.Spinor) {
			new(FifthDimKernel).Run(tm, dst, src, ls, 0.05)
		}, func(_ *team.Team, dst, src []latmath.Spinor) { refAddFifthDimHops(dst, src, len(dst)/ls, ls, 0.05) }},
	}
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
	hop := func(ls int) rangedCase {
		return rangedCase{"HopKernel", func(tm *team.Team, dst, src []latmath.Spinor) {
			(&HopKernel{G: gauge, Nb: clover.hop.Nb}).Run(tm, dst, src, diag)
		}, func(_ *team.Team, dst, src []latmath.Spinor) { refHopSlices(dst, src, gauge, clover.hop.Nb, ls, diag) }}
	}
	term := rangedCase{"CloverTerm.AddTo", func(tm *team.Team, dst, src []latmath.Spinor) {
		clover.term.AddTo(tm, dst, src)
	}, func(_ *team.Team, dst, src []latmath.Spinor) { refCloverAddTo(clover.term, dst, src) }}
	staggered := vecCase("StaggeredKernel", func(tm *team.Team, dst, src []latmath.Vec3) {
		asqtad.sites.Run(tm, dst, src, asqtad.Mass, asqtad.Naik)
	}, func(_ *team.Team, dst, src []latmath.Vec3) { refStaggered(dst, src, asqtad) })
	for _, width := range []int{1, 2, 3, 7} {
		for _, adversarial := range []bool{false, true} {
			checkCase(t, hop(1), width, v4, adversarial)
			checkCase(t, hop(2), width, 2*v4, adversarial)
			checkCase(t, term, width, v4, adversarial)
			checkCase(t, staggered, width, v4, adversarial)
		}
	}
}

// TestRangedOracleCatchesChunkSlips is the mutation check on the test
// itself: a kernel that stops each chunk a site short (γ5 and the
// staggered kernel), and one that reads its reflected source from its
// own slice, must fail the comparison once the loop forks. (That chunks never overlap is the
// team's own visit-count test; an overlapping mutant here would race.)
func TestRangedOracleCatchesChunkSlips(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	const ls = 5
	n := ls * (team.Grain - 3)
	mutants := map[string]func(k *Gamma5Kernel, lo, hi int){
		"one short":     func(k *Gamma5Kernel, lo, hi int) { k.Range(lo, hi-1) },
		"no reflection": func(k *Gamma5Kernel, lo, hi int) { (&Gamma5Kernel{k.dst, k.src, 1}).Range(lo, hi) },
	}
	for name, mutant := range mutants {
		var tm team.Team
		src, got := testSpinors(n, 71, true), testSpinors(n, 72, true)
		want := clone(got)
		k := &mutantKernel{Gamma5Kernel{got[1 : n+1], src[1 : n+1], ls}, mutant}
		tm.Run(n, k)
		tm.Close()
		refReflectGamma5(want[1:n+1], src[1:n+1], ls)
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
	Gamma5Kernel
	mutant func(k *Gamma5Kernel, lo, hi int)
}

func (k *mutantKernel) Range(lo, hi int) { k.mutant(&k.Gamma5Kernel, lo, hi) }
