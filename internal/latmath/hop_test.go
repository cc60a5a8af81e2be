package latmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// projRow is one of the two upper rows of 1 - s γ_μ. γ_μ couples the
// upper spin pair to the lower one, so row a holds exactly two non-zeros:
// c1 on the diagonal and c2 in a lower column b2, and the projected
// component is h_a = (0 + c1 ψ_a) + c2 ψ_b2.
type projRow struct {
	c1, c2 complex128
	b2     int
}

// proj[μ][sIdx][a] tabulates those rows from Gamma: the derivation the
// literal coefficients of HalfSpinor.Project must equal.
var proj = buildProjRows()

func buildProjRows() (rows [4][2][2]projRow) {
	for mu := 0; mu < 4; mu++ {
		for sIdx, s := range []complex128{+1, -1} {
			P := Identity4.Sub(Gamma[mu].Scale(s))
			for a := 0; a < 2; a++ {
				r := projRow{c1: P[a][a]}
				n := 0
				for b := 0; b < 4; b++ {
					if P[a][b] != 0 {
						n++
						r.c2, r.b2 = P[a][b], b
					}
				}
				if n != 2 || r.c1 == 0 || r.b2 <= a {
					panic(fmt.Sprintf("latmath: row %d of 1-(%v)γ_%d is not diagonal plus one lower-pair entry", a, s, mu))
				}
				rows[mu][sIdx][a] = r
			}
		}
	}
	return rows
}

// The by-value hop steps as they stood before the pointer kernel, kept
// verbatim as the oracle: every pinned digest in the tree was produced
// by these expressions, so the kernel must equal them bit for bit.

func refProject(mu, s int, psi Spinor) HalfSpinor {
	P := Identity4.Sub(Gamma[mu].Scale(complex(float64(s), 0)))
	var h HalfSpinor
	for a := 0; a < 2; a++ {
		for b := 0; b < 4; b++ {
			c := P[a][b]
			if c == 0 {
				continue
			}
			h[a] = h[a].AXPY(c, psi[b])
		}
	}
	return h
}

func refReconstruct(mu, s int, h HalfSpinor) Spinor {
	R := recon[mu][signIndex(s)]
	var out Spinor
	out[0] = h[0]
	out[1] = h[1]
	out[2] = h[0].Scale(R[0][0]).Add(h[1].Scale(R[0][1]))
	out[3] = h[0].Scale(R[1][0]).Add(h[1].Scale(R[1][1]))
	return out
}

func refMulMat(h HalfSpinor, m Mat3) HalfSpinor {
	return HalfSpinor{m.MulVec(h[0]), m.MulVec(h[1])}
}

func refDagMulMat(h HalfSpinor, m Mat3) HalfSpinor {
	return HalfSpinor{m.DagMulVec(h[0]), m.DagMulVec(h[1])}
}

// The three ways a half spinor meets a link between projection and
// reconstruction: U (forward hop), U† (backward hop), none (a ghost the
// sender already multiplied).
const (
	linkU = iota
	linkUdag
	linkNone
)

// refHop is the old site-loop statement acc = acc.Add(Reconstruct(...)).
func refHop(acc Spinor, mu, s, link int, u Mat3, psi Spinor) Spinor {
	h := refProject(mu, s, psi)
	switch link {
	case linkU:
		h = refMulMat(h, u)
	case linkUdag:
		h = refDagMulMat(h, u)
	}
	return acc.Add(refReconstruct(mu, s, h))
}

// hopImpl is a kernel under test, so that the same comparison runs on
// the real one and on deliberately broken ones.
type hopImpl struct {
	project     func(h *HalfSpinor, mu, s int, psi *Spinor)
	reconstruct func(acc *Spinor, mu, s int, h *HalfSpinor)
}

func (k hopImpl) hop(acc *Spinor, mu, s, link int, u *Mat3, psi *Spinor) {
	var h HalfSpinor
	k.project(&h, mu, s, psi)
	switch link {
	case linkU:
		h.MulMat(u, &h)
	case linkUdag:
		h.DagMulMat(u, &h)
	}
	k.reconstruct(acc, mu, s, &h)
}

func realKernel() hopImpl {
	return hopImpl{project: (*HalfSpinor).Project, reconstruct: (*Spinor).AddReconstruct}
}

// sameBits compares two complex numbers by IEEE bit pattern; NaNs match
// any NaN (the payload depends on operand order inside the hardware).
func sameBits(a, b complex128) bool {
	eq := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return eq(real(a), real(b)) && eq(imag(a), imag(b))
}

func sameSpinor(a, b *Spinor) bool {
	for i := range a {
		for k := range a[i] {
			if !sameBits(a[i][k], b[i][k]) {
				return false
			}
		}
	}
	return true
}

// hopMismatches counts the (mu, sign, link, accumulator) combinations
// on which kernel k and the oracle disagree for one spinor and link.
func hopMismatches(k hopImpl, psi Spinor, u Mat3) int {
	negZero := math.Copysign(0, -1)
	var zeros, negs Spinor
	for a := range negs {
		for c := range negs[a] {
			negs[a][c] = complex(negZero, negZero)
		}
	}
	bad := 0
	for mu := 0; mu < 4; mu++ {
		for _, s := range []int{+1, -1} {
			for link := linkU; link <= linkNone; link++ {
				for _, acc0 := range []Spinor{zeros, negs, psi} {
					want := refHop(acc0, mu, s, link, u, psi)
					got := acc0
					k.hop(&got, mu, s, link, &u, &psi)
					if !sameSpinor(&got, &want) {
						bad++
					}
				}
			}
		}
	}
	return bad
}

// hopSite is one site of the hop kernel with projector sign s whose
// eight neighbours are all psi and whose links are all u:
// 4.3 psi - ½ Σ_mu [(1 - sγ_mu) u psi + (1 + sγ_mu) u† psi].
func hopSite(s int, psi Spinor, u Mat3) Spinor {
	k := realKernel()
	var acc, out Spinor
	for mu := 0; mu < 4; mu++ {
		k.hop(&acc, mu, s, linkU, &u, &psi)
		k.hop(&acc, mu, -s, linkUdag, &u, &psi)
	}
	out.HopResult(4.3, &psi, &acc)
	return out
}

// dagMismatches counts the components on which the s = -1 hop of psi,
// D†'s, differs from γ5 applied to the s = +1 hop of γ5 psi, the route it
// replaced. Where either is finite they must be equal as values; where
// one is not finite (an Inf or NaN input, or an overflow), so must the
// other be. The bits may differ in two ways, both from γ5 by value,
// 0 + (c + 0i) x: it turns every -0 into +0, and its 0·∞ and 0·NaN make
// a component with one non-finite part NaN in the other part too.
func dagMismatches(psi Spinor, u Mat3) int {
	got := hopSite(-1, psi, u)
	want := Gamma5.ApplySpin(hopSite(+1, Gamma5.ApplySpin(psi), u))
	finite := func(z complex128) bool { return !cmplx.IsInf(z) && !cmplx.IsNaN(z) }
	bad := 0
	for a := range got {
		for k, x := range got[a] {
			if y := want[a][k]; (finite(x) || finite(y)) && x != y {
				bad++
			}
		}
	}
	return bad
}

// adversarialSpinors are the inputs on which a "harmless" algebraic
// simplification of the kernel shows: signed zeros, a point source,
// denormals, infinities and NaN.
func adversarialSpinors() []Spinor {
	negZero := math.Copysign(0, -1)
	fill := func(re, im float64) Spinor {
		var s Spinor
		for a := range s {
			for c := range s[a] {
				s[a][c] = complex(re, im)
			}
		}
		return s
	}
	out := []Spinor{
		fill(0, 0), fill(negZero, negZero), fill(0, negZero), fill(negZero, 0),
		fill(5e-324, -5e-324), fill(math.Inf(1), 1), fill(1, math.Inf(-1)), fill(math.NaN(), 0),
	}
	// Point sources: one unit component in a field of +0 or -0.
	for a := 0; a < 4; a++ {
		for _, bg := range []float64{0, negZero} {
			for _, one := range []complex128{1, -1, 1i, -1i} {
				s := fill(bg, bg)
				s[a][a%3] = one
				out = append(out, s)
			}
		}
	}
	// Mixed signs of zero, component by component.
	rng := rand.New(rand.NewSource(41))
	for n := 0; n < 16; n++ {
		var s Spinor
		for a := range s {
			for c := range s[a] {
				s[a][c] = complex(math.Copysign(0, rng.Float64()-0.5), math.Copysign(0, rng.Float64()-0.5))
			}
		}
		out = append(out, s)
	}
	return out
}

// TestHopKernelBits proves the pointer kernel equal to the by-value
// code it replaced, bit for bit including the sign of zero, for all
// eight (mu, sign) and all three link modes.
func TestHopKernelBits(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	links := []Mat3{Identity3(), RandomSU3(rng), RandomSU3(rng), randMat(rng)}
	spinors := adversarialSpinors()
	for n := 0; n < 32; n++ {
		spinors = append(spinors, randSpinor(rng))
	}
	for i, psi := range spinors {
		for j, u := range links {
			if bad := hopMismatches(realKernel(), psi, u); bad != 0 {
				t.Fatalf("spinor %d, link %d: kernel differs from the by-value oracle in %d cases", i, j, bad)
			}
			if bad := dagMismatches(psi, u); bad != 0 {
				t.Fatalf("spinor %d, link %d: the s = -1 hop differs from γ5 (s = +1 hop) γ5 in %d components", i, j, bad)
			}
		}
	}
}

// TestHopKernelWrappersAndResult covers what hopMismatches does not
// reach: the by-value Project/Reconstruct the benchmark probes call and
// the closing diag ψ - ½ acc.
func TestHopKernelWrappersAndResult(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	RandomSU3(rng) // the link of a deleted case; drawn so the spinors stay the same
	spinors := append(adversarialSpinors(), randSpinor(rng), randSpinor(rng))
	for i, psi := range spinors {
		for mu := 0; mu < 4; mu++ {
			for _, s := range []int{+1, -1} {
				h, hRef := Project(mu, s, psi), refProject(mu, s, psi)
				full, fullRef := Reconstruct(mu, s, h), refReconstruct(mu, s, hRef)
				if !sameSpinor(&full, &fullRef) {
					t.Fatalf("spinor %d mu %d s %d: Reconstruct(Project) differs from the oracle", i, mu, s)
				}
			}
		}
		acc := spinors[(i+1)%len(spinors)]
		diag := complex(4.3, 0)
		var got Spinor
		got.HopResult(diag, &psi, &acc)
		want := psi.Scale(diag).Sub(acc.Scale(0.5))
		if !sameSpinor(&got, &want) {
			t.Fatalf("spinor %d: HopResult differs from Scale(diag).Sub(acc.Scale(0.5))", i)
		}
	}
}

// TestHopOracleCatchesSimplifications is the mutation check on the
// oracle itself: rewrites of the kernel that are algebraically the
// identity must each be caught on the adversarial inputs. In the
// projection: dropping the leading 0 +, dropping the multiply by 1,
// multiplying by ±i as a swap and negate (signed zeros for the first
// and last, infinities for the second: the 0 + hides the sign 1·z gives
// a zero, but 0·∞ is NaN). In the reconstruction: dropping the term
// whose coefficient is 0, and ±i as a swap again. Adding two terms in
// the other order is not in the list because IEEE addition commutes:
// (0 + x) + y and (0 + y) + x are the same bits for every x and y, NaN
// payloads aside.
func TestHopOracleCatchesSimplifications(t *testing.T) {
	timesEntry := func(c, z complex128) complex128 {
		switch c {
		case 1i:
			return complex(-imag(z), real(z))
		case -1i:
			return complex(imag(z), -real(z))
		}
		return c * z
	}
	reconMutant := func(lower func(r [2]complex128, h0, h1 complex128) complex128) func(acc *Spinor, mu, s int, h *HalfSpinor) {
		return func(acc *Spinor, mu, s int, h *HalfSpinor) {
			R := recon[mu][signIndex(s)]
			for k := range h[0] {
				acc[0][k] += h[0][k]
				acc[1][k] += h[1][k]
				acc[2][k] += lower(R[0], h[0][k], h[1][k])
				acc[3][k] += lower(R[1], h[0][k], h[1][k])
			}
		}
	}
	kern := realKernel()
	mutants := map[string]hopImpl{
		"no leading zero": {reconstruct: kern.reconstruct, project: func(h *HalfSpinor, mu, s int, psi *Spinor) {
			for a, r := range proj[mu][signIndex(s)] {
				for k := range h[a] {
					h[a][k] = r.c1*psi[a][k] + r.c2*psi[r.b2][k]
				}
			}
		}},
		"times one dropped": {reconstruct: kern.reconstruct, project: func(h *HalfSpinor, mu, s int, psi *Spinor) {
			for a, r := range proj[mu][signIndex(s)] {
				for k := range h[a] {
					h[a][k] = (0 + psi[a][k]) + r.c2*psi[r.b2][k]
				}
			}
		}},
		"times i by swap": {reconstruct: kern.reconstruct, project: func(h *HalfSpinor, mu, s int, psi *Spinor) {
			for a, r := range proj[mu][signIndex(s)] {
				for k := range h[a] {
					h[a][k] = (0 + r.c1*psi[a][k]) + timesEntry(r.c2, psi[r.b2][k])
				}
			}
		}},
		"zero coefficient dropped": {project: kern.project, reconstruct: reconMutant(func(r [2]complex128, h0, h1 complex128) complex128 {
			if r[0] == 0 {
				return r[1] * h1
			}
			return r[0] * h0
		})},
		"recon times i by swap": {project: kern.project, reconstruct: reconMutant(func(r [2]complex128, h0, h1 complex128) complex128 {
			return timesEntry(r[0], h0) + timesEntry(r[1], h1)
		})},
	}
	u := Identity3()
	for name, k := range mutants {
		caught := 0
		for _, psi := range adversarialSpinors() {
			caught += hopMismatches(k, psi, u)
		}
		if caught == 0 {
			t.Errorf("mutant %q passes the oracle: the adversarial inputs do not pin that expression", name)
		}
	}
}

// TestHopLiteralsMatchGamma holds the literal coefficients of the
// kernel to the tables derived from Gamma: the projection of a unit
// spinor e_b is column b of rows proj, the reconstruction of a unit half
// spinor is a column of recon. A coefficient with the wrong sign, or on
// the wrong column, fails here by name before the oracle sees a digest.
func TestHopLiteralsMatchGamma(t *testing.T) {
	for mu := 0; mu < 4; mu++ {
		for si, s := range []int{+1, -1} {
			for b := 0; b < 4; b++ {
				var psi Spinor
				psi[b][0] = 1
				var h HalfSpinor
				h.Project(mu, s, &psi)
				for a, r := range proj[mu][si] {
					want := complex128(0)
					switch b {
					case a:
						want = r.c1
					case r.b2:
						want = r.c2
					}
					if h[a][0] != want {
						t.Errorf("Project mu %d s %+d: row %d column %d is %v, Gamma gives %v", mu, s, a, b, h[a][0], want)
					}
				}
			}
			for c := 0; c < 2; c++ {
				var h HalfSpinor
				h[c][0] = 1
				var acc Spinor
				acc.AddReconstruct(mu, s, &h)
				for a := 0; a < 4; a++ {
					want := complex128(0)
					if a == c {
						want = 1
					} else if a >= 2 {
						want = recon[mu][si][a-2][c]
					}
					if acc[a][0] != want {
						t.Errorf("AddReconstruct mu %d s %+d: row %d column %d is %v, recon gives %v", mu, s, a, c, acc[a][0], want)
					}
				}
			}
		}
	}
}

// hopFuzzWords is the fuzz input size: 24 spinor words then 18 link
// words, little-endian float64.
const hopFuzzWords = SpinorWords + Mat3Words

// FuzzHopKernelBits lets the fuzzer pick every float64 of the spinor
// and the link (not necessarily unitary: the kernel is linear algebra,
// it never assumes SU(3)).
func FuzzHopKernelBits(f *testing.F) {
	encode := func(psi Spinor, u Mat3) []byte {
		w := make([]uint64, hopFuzzWords)
		PackSpinor(psi, w[:SpinorWords])
		PackMat3(u, w[SpinorWords:])
		b := make([]byte, 0, 8*hopFuzzWords)
		for _, x := range w {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	rng := rand.New(rand.NewSource(43))
	for _, psi := range adversarialSpinors()[:12] {
		f.Add(encode(psi, RandomSU3(rng)))
	}
	f.Add(encode(randSpinor(rng), Identity3()))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w [hopFuzzWords]uint64
		for i := range w {
			if len(data) >= 8*(i+1) {
				w[i] = binary.LittleEndian.Uint64(data[8*i:])
			}
		}
		psi, u := UnpackSpinor(w[:SpinorWords]), UnpackMat3(w[SpinorWords:])
		if bad := hopMismatches(realKernel(), psi, u); bad != 0 {
			t.Fatalf("kernel differs from the by-value oracle in %d cases for psi=%v u=%v", bad, psi, u)
		}
		if bad := dagMismatches(psi, u); bad != 0 {
			t.Fatalf("the s = -1 hop differs from γ5 (s = +1 hop) γ5 in %d components for psi=%v u=%v", bad, psi, u)
		}
	})
}
