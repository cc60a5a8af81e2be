package latmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-10

func randVec(rng *rand.Rand) Vec3 {
	var v Vec3
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func randMat(rng *rand.Rand) Mat3 {
	var m Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return m
}

func randSpinor(rng *rand.Rand) Spinor {
	var s Spinor
	for a := range s {
		s[a] = randVec(rng)
	}
	return s
}

func TestVec3Algebra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v, w := randVec(rng), randVec(rng)
	if got := v.Add(w).Sub(w); got.Sub(v).Norm2() > tol {
		t.Fatal("add/sub not inverse")
	}
	// Inner product conjugate symmetry: <v,w> = conj(<w,v>).
	if !approxEqual(v.Dot(w), conj(w.Dot(v)), tol) {
		t.Fatal("dot not conjugate symmetric")
	}
	// Norm2 agrees with Dot.
	if math.Abs(v.Norm2()-real(v.Dot(v))) > tol {
		t.Fatal("norm2 != <v,v>")
	}
	// AXPY.
	a := complex(2.5, -1.25)
	if got := v.AXPY(a, w); got.Sub(v.Add(w.Scale(a))).Norm2() > tol {
		t.Fatal("axpy mismatch")
	}
}

func TestMat3MulAssociativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randMat(rng), randMat(rng), randMat(rng)
		return a.Mul(b).Mul(c).FrobeniusDistance(a.Mul(b.Mul(c))) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMat3DaggerQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randMat(rng), randMat(rng)
		// (ab)† = b† a†
		if a.Mul(b).Dagger().FrobeniusDistance(b.Dagger().Mul(a.Dagger())) > 1e-8 {
			return false
		}
		// m† v computed directly matches forming the dagger.
		v := randVec(rng)
		return a.DagMulVec(v).Sub(a.Dagger().MulVec(v)).Norm2() < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMat3MulVecLinearQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMat(rng)
		v, w := randVec(rng), randVec(rng)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		lhs := m.MulVec(v.Scale(a).Add(w))
		rhs := m.MulVec(v).Scale(a).Add(m.MulVec(w))
		return lhs.Sub(rhs).Norm2() < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReunitarize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		m := randMat(rng)
		u := m.Reunitarize()
		if !u.IsSU3(1e-10) {
			t.Fatalf("reunitarized matrix not SU(3): det %v", u.Det())
		}
	}
	// Reunitarizing an SU(3) matrix is (nearly) the identity operation.
	u := RandomSU3(rand.New(rand.NewSource(3)))
	if u.Reunitarize().FrobeniusDistance(u) > 1e-9 {
		t.Fatal("reunitarize moved an SU(3) matrix")
	}
}

func TestRandomSU3Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := RandomSU3(rng)
		v := RandomSU3(rng)
		// Group closure and unitarity.
		return u.IsSU3(1e-9) && v.IsSU3(1e-9) && u.Mul(v).IsSU3(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTracelessAntiHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randMat(rng)
	a := m.TracelessAntiHermitian()
	if !approxEqual(a.Trace(), 0, tol) {
		t.Fatalf("trace = %v", a.Trace())
	}
	if a.Add(a.Dagger()).FrobeniusDistance(Zero3()) > tol {
		t.Fatal("not anti-Hermitian")
	}
}

func TestGammaAnticommutators(t *testing.T) {
	// {γ_μ, γ_ν} = 2 δ_{μν}.
	for mu := 0; mu < 4; mu++ {
		for nu := 0; nu < 4; nu++ {
			anti := Gamma[mu].Mul(Gamma[nu]).Add(Gamma[nu].Mul(Gamma[mu]))
			want := Mat4{}
			if mu == nu {
				want = Identity4.Scale(2)
			}
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					if !approxEqual(anti[i][j], want[i][j], tol) {
						t.Fatalf("anticommutator {%d,%d} wrong at (%d,%d): %v", mu, nu, i, j, anti[i][j])
					}
				}
			}
		}
	}
}

func TestGammaHermitian(t *testing.T) {
	for mu := 0; mu < 4; mu++ {
		d := Gamma[mu].Dagger()
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if !approxEqual(d[i][j], Gamma[mu][i][j], tol) {
					t.Fatalf("γ_%d not Hermitian", mu)
				}
			}
		}
	}
}

func TestGamma5(t *testing.T) {
	// γ5 anticommutes with every γ_μ and squares to one; in the chiral
	// basis it is diag(±1).
	for mu := 0; mu < 4; mu++ {
		anti := Gamma5.Mul(Gamma[mu]).Add(Gamma[mu].Mul(Gamma5))
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if !approxEqual(anti[i][j], 0, tol) {
					t.Fatalf("γ5 does not anticommute with γ_%d", mu)
				}
			}
		}
	}
	sq := Gamma5.Mul(Gamma5)
	for i := 0; i < 4; i++ {
		if !approxEqual(sq[i][i], 1, tol) {
			t.Fatal("γ5² != 1")
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && !approxEqual(Gamma5[i][j], 0, tol) {
				t.Fatal("γ5 not diagonal in chiral basis")
			}
		}
	}
}

func TestSigmaHermitianAntisymmetric(t *testing.T) {
	for mu := 0; mu < 4; mu++ {
		for nu := 0; nu < 4; nu++ {
			s := Sigma(mu, nu)
			// σ_{μν} = -σ_{νμ}.
			sT := Sigma(nu, mu)
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					if !approxEqual(s[i][j], -sT[i][j], tol) {
						t.Fatalf("σ not antisymmetric in (%d,%d)", mu, nu)
					}
				}
			}
			if mu == nu {
				continue
			}
			// Hermitian.
			d := s.Dagger()
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					if !approxEqual(d[i][j], s[i][j], tol) {
						t.Fatalf("σ_{%d%d} not Hermitian", mu, nu)
					}
				}
			}
		}
	}
}

// TestProjectReconstruct is the key Dslash identity: reconstructing a
// projected half spinor reproduces (1 - s γ_μ)ψ exactly, for every
// direction and sign. This is what licenses sending 12 instead of 24
// complex numbers per face site.
func TestProjectReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for mu := 0; mu < 4; mu++ {
		for _, s := range []int{+1, -1} {
			for trial := 0; trial < 10; trial++ {
				psi := randSpinor(rng)
				P := Identity4.Sub(Gamma[mu].Scale(complex(float64(s), 0)))
				want := P.ApplySpin(psi)
				got := Reconstruct(mu, s, Project(mu, s, psi))
				if got.Sub(want).Norm2() > tol {
					t.Fatalf("project/reconstruct mismatch mu=%d s=%d", mu, s)
				}
			}
		}
	}
}

func TestProjectLinearQuick(t *testing.T) {
	f := func(seed int64, muSel, sSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := int(muSel) % 4
		s := 1 - 2*int(sSel%2)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		x, y := randSpinor(rng), randSpinor(rng)
		lhs := Project(mu, s, x.Scale(a).Add(y))
		px, py := Project(mu, s, x), Project(mu, s, y)
		var d float64
		for i := range lhs {
			d += lhs[i].Sub(px[i].Scale(a).Add(py[i])).Norm2()
		}
		return d < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpinorAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, u := randSpinor(rng), randSpinor(rng)
	m := RandomSU3(rng)
	// Color rotation preserves the norm, and DagMulMat undoes MulMat.
	h := HalfSpinor{s[0], s[1]}
	r := h
	r.MulMat(&m, &r)
	if math.Abs(r[0].Norm2()+r[1].Norm2()-h[0].Norm2()-h[1].Norm2()) > 1e-8 {
		t.Fatal("SU(3) rotation changed spinor norm")
	}
	r.DagMulMat(&m, &r)
	if r[0].Sub(h[0]).Norm2()+r[1].Sub(h[1]).Norm2() > 1e-8 {
		t.Fatal("m† m != 1 on spinor")
	}
	// Dot/Norm consistency.
	if math.Abs(real(s.Dot(s))-s.Norm2()) > tol {
		t.Fatal("spinor dot/norm mismatch")
	}
	_ = u
}

func TestPackUnpackRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randSpinor(rng)
		buf := make([]uint64, SpinorWords)
		PackSpinor(s, buf)
		if UnpackSpinor(buf) != s {
			return false
		}
		h := Project(0, 1, s)
		hb := make([]uint64, HalfSpinorWords)
		PackHalfSpinor(&h, hb)
		var back HalfSpinor
		if UnpackHalfSpinor(&back, hb); back != h {
			return false
		}
		m := randMat(rng)
		mb := make([]uint64, Mat3Words)
		PackMat3(m, mb)
		if UnpackMat3(mb) != m {
			return false
		}
		v := randVec(rng)
		vb := make([]uint64, Vec3Words)
		PackVec3(v, vb)
		return UnpackVec3(vb) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSU2EmbeddingQuick(t *testing.T) {
	f := func(seed int64, sgSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sg := int(sgSel) % NumSU2Subgroups
		u := randomSU2(rng)
		m := EmbedSU2(u, sg)
		if !m.IsSU3(1e-9) {
			return false
		}
		// Extraction recovers the embedded element exactly (k=1).
		got, k := ExtractSU2(m, sg)
		return math.Abs(k-1) < 1e-9 &&
			math.Abs(got.A0-u.A0) < 1e-9 && math.Abs(got.A1-u.A1) < 1e-9 &&
			math.Abs(got.A2-u.A2) < 1e-9 && math.Abs(got.A3-u.A3) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractSU2Zero(t *testing.T) {
	u, k := ExtractSU2(Zero3(), 0)
	if k != 0 || u.A0 != 1 {
		t.Fatalf("zero extract = %+v k=%v", u, k)
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sum, sum2 float64
	n := 20000
	for i := 0; i < n; i++ {
		v := GaussianVec3(rng)
		for c := 0; c < 3; c++ {
			sum += real(v[c]) + imag(v[c])
			sum2 += real(v[c])*real(v[c]) + imag(v[c])*imag(v[c])
		}
	}
	mean := sum / float64(6*n)
	varr := sum2 / float64(6*n)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean = %v", mean)
	}
	if math.Abs(varr-1) > 0.03 {
		t.Fatalf("gaussian variance = %v", varr)
	}
}
