package latmath

import (
	"math/rand"
	"testing"
)

// The by-value forms the in-place ones replaced in every site loop, kept
// as the oracle: Spinor.AXPY / Scale / Add and the chiral projectors as
// fermion/dwf.go wrote them, through Mat4.ApplySpin with Gamma5.

// gamma5 is the diagonal of Gamma5: the literals of the chiral
// projectors must equal it.
var gamma5 = [4]complex128{Gamma5[0][0], Gamma5[1][1], Gamma5[2][2], Gamma5[3][3]}

func refProjPlus(s Spinor) Spinor  { return s.Add(Gamma5.ApplySpin(s)).Scale(0.5) }
func refProjMinus(s Spinor) Spinor { return s.Sub(Gamma5.ApplySpin(s)).Scale(0.5) }

// inPlaceImpl is the set of forms under test, so that the comparison
// runs on the real ones and on deliberately broken ones.
type inPlaceImpl struct {
	chiral func(plus bool, c, x complex128) complex128
}

func realInPlace() inPlaceImpl { return inPlaceImpl{chiral: chiral} }

func (k inPlaceImpl) subChiral(acc *Spinor, plus bool, psi *Spinor) {
	for s := range acc {
		for c := range acc[s] {
			acc[s][c] = acc[s][c] - k.chiral(plus, gamma5[s], psi[s][c])
		}
	}
}

// inPlaceMismatches counts the forms on which k and the oracle disagree
// for the pair (y, x) and the scalar a.
func inPlaceMismatches(k inPlaceImpl, y, x Spinor, a complex128) int {
	bad := 0
	check := func(got, want Spinor) {
		if !sameSpinor(&got, &want) {
			bad++
		}
	}
	got := y
	got.AddScaled(a, &x)
	check(got, y.AXPY(a, x))
	got = y
	got.ScaleBy(a)
	check(got, y.Scale(a))
	got = y
	got.AddSpinor(&x)
	check(got, y.Add(x))
	v := y[1]
	v.AddVec(&x[2])
	if want := y[1].Add(x[2]); !sameBits(v[0], want[0]) || !sameBits(v[1], want[1]) || !sameBits(v[2], want[2]) {
		bad++
	}
	for _, plus := range []bool{true, false} {
		proj := refProjMinus(x)
		if plus {
			proj = refProjPlus(x)
		}
		got = y
		k.subChiral(&got, plus, &x)
		check(got, y.Sub(proj))
		got = y
		got.AddScaledChiral(a, plus, &x)
		check(got, y.AXPY(a, proj))
	}
	// The real SubChiral, not only the shape subChiral shares with it.
	got = y
	got.SubChiral(true, &x)
	check(got, y.Sub(refProjPlus(x)))
	return bad
}

// TestInPlaceFormsBits proves the in-place forms equal to the by-value
// code they replaced, bit for bit including the sign of zero.
func TestInPlaceFormsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	spinors := adversarialSpinors()
	for n := 0; n < 16; n++ {
		spinors = append(spinors, randSpinor(rng))
	}
	scalars := []complex128{0, 1, -1, 0.5, complex(0.3, -1.7), complex(-2.5e-3, 0)}
	for i, y := range spinors {
		for j, x := range spinors {
			if bad := inPlaceMismatches(realInPlace(), y, x, scalars[(i+j)%len(scalars)]); bad != 0 {
				t.Fatalf("spinors %d, %d: %d in-place forms differ from the by-value oracle", i, j, bad)
			}
		}
	}
}

// TestInPlaceOracleCatchesSimplifications is the mutation check: γ5 x
// inside P_± as a copy and negate, or without the leading 0 +, and P_±
// as "keep the upper (lower) pair, zero the other" are the identity
// algebraically and must each be caught on the adversarial inputs.
func TestInPlaceOracleCatchesSimplifications(t *testing.T) {
	projector := func(g5 func(c, x complex128) complex128) func(plus bool, c, x complex128) complex128 {
		return func(plus bool, c, x complex128) complex128 {
			if plus {
				return 0.5 * (x + g5(c, x))
			}
			return 0.5 * (x - g5(c, x))
		}
	}
	mutants := map[string]inPlaceImpl{
		"γ5 by negation": {chiral: projector(func(c, x complex128) complex128 {
			if real(c) < 0 {
				return -x
			}
			return x
		})},
		"γ5 without 0 +": {chiral: projector(func(c, x complex128) complex128 { return c * x })},
		"projector by selection": {chiral: func(plus bool, c, x complex128) complex128 {
			if plus == (real(c) > 0) {
				return x
			}
			return 0
		}},
	}
	spinors := adversarialSpinors()
	for name, k := range mutants {
		caught := 0
		for i, y := range spinors {
			caught += inPlaceMismatches(k, y, spinors[(i+3)%len(spinors)], 1)
		}
		if caught == 0 {
			t.Errorf("mutant %q passes the oracle: the adversarial inputs do not pin that expression", name)
		}
	}
}

// TestGamma5LiteralsMatchGamma holds the literal ±1 of γ5 in the chiral
// projectors, spin row by spin row, to the diagonal of Gamma5: a row with
// the wrong sign fails here by name.
func TestGamma5LiteralsMatchGamma(t *testing.T) {
	for b := 0; b < 4; b++ {
		var e Spinor
		e[b][0] = 1
		for _, plus := range []bool{true, false} {
			want := 0.5 * (1 - gamma5[b])
			if plus {
				want = 0.5 * (1 + gamma5[b])
			}
			var sub, add Spinor
			sub.SubChiral(plus, &e)
			add.AddScaledChiral(1, plus, &e)
			if sub[b][0] != -want || add[b][0] != want {
				t.Errorf("chiral projector plus=%v row %d: SubChiral %v, AddScaledChiral %v, Gamma5 gives %v", plus, b, sub[b][0], add[b][0], want)
			}
		}
	}
}
