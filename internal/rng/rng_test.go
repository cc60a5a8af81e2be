package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestStreamIndependenceQuick(t *testing.T) {
	// Different ids (or seeds) give different sequences.
	f := func(seed, id1, id2 uint64) bool {
		if id1 == id2 {
			return true
		}
		a, b := New(seed, id1), New(seed, id2)
		same := 0
		for i := 0; i < 16; i++ {
			if a.Uint64() == b.Uint64() {
				same++
			}
		}
		return same == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1, 0), New(2, 0)
	if a.Uint64() == b.Uint64() {
		t.Fatal("different seeds gave identical first draw")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(9, 9)
	a.Uint64()
	c := a.Clone()
	va, vc := a.Uint64(), c.Uint64()
	if va != vc {
		t.Fatal("clone not at same position")
	}
	a.Uint64()
	if a.Pos() == c.Pos() {
		t.Fatal("clone shares state")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3, 1)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	s := New(11, 0)
	n := 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v", mean)
	}
	varr := sum2/float64(n) - mean*mean
	if math.Abs(varr-1.0/12) > 0.005 {
		t.Fatalf("variance = %v", varr)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(13, 0)
	n := 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	varr := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(varr-1) > 0.05 {
		t.Fatalf("variance = %v", varr)
	}
}

func TestBitBalance(t *testing.T) {
	// Each output bit should be set about half the time.
	s := New(17, 17)
	n := 20000
	counts := [64]int{}
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / float64(n)
		if frac < 0.46 || frac > 0.54 {
			t.Fatalf("bit %d set fraction %v", b, frac)
		}
	}
}

func TestIntn(t *testing.T) {
	s := New(19, 0)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("only %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}
