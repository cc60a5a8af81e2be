package geom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeShape(t *testing.T) {
	s := MakeShape(8, 4, 4, 2, 2, 2)
	if got := s.Volume(); got != 1024 {
		t.Fatalf("volume = %d, want 1024", got)
	}
	if got := s.Dims(); got != 6 {
		t.Fatalf("dims = %d, want 6", got)
	}
	s2 := MakeShape(4, 4)
	if got := s2.Volume(); got != 16 {
		t.Fatalf("volume = %d, want 16", got)
	}
	if got := s2.Dims(); got != 2 {
		t.Fatalf("dims = %d, want 2", got)
	}
	if s2[5] != 1 {
		t.Fatalf("padding dim = %d, want 1", s2[5])
	}
}

func TestMakeShapePanics(t *testing.T) {
	for _, bad := range [][]int{{0}, {-1, 2}, {1, 2, 3, 4, 5, 6, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeShape(%v) did not panic", bad)
				}
			}()
			MakeShape(bad...)
		}()
	}
}

func TestParseShape(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Shape
		ok   bool
	}{
		{"", Shape{}, false},
		{"2,0", Shape{}, false},
		{"2,x", Shape{}, false},
		{"1,1,1,1,1,1,1", Shape{}, false},
		{"8, 4,4,2,2,2", MakeShape(8, 4, 4, 2, 2, 2), true},
	} {
		got, err := ParseShape(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseShape(%q) = %v, %v; want %v, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	s := MakeShape(3, 4, 2, 5)
	for r := 0; r < s.Volume(); r++ {
		c := s.CoordOf(r)
		if !s.Contains(c) {
			t.Fatalf("coord %v of rank %d outside shape", c, r)
		}
		if got := s.Rank(c); got != r {
			t.Fatalf("Rank(CoordOf(%d)) = %d", r, got)
		}
	}
}

func TestRankCoordQuick(t *testing.T) {
	s := MakeShape(8, 4, 4, 2, 2, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := rng.Intn(s.Volume())
		return s.Rank(s.CoordOf(r)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborWraps(t *testing.T) {
	s := MakeShape(4, 2)
	c := Coord{3, 1}
	if n := s.Neighbor(c, 0, Fwd); n[0] != 0 {
		t.Fatalf("fwd wrap: %v", n)
	}
	if n := s.Neighbor(Coord{0, 0}, 0, Bwd); n[0] != 3 {
		t.Fatalf("bwd wrap: %v", n)
	}
}

func TestNeighborInverse(t *testing.T) {
	s := MakeShape(4, 4, 2, 2, 2, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := s.CoordOf(rng.Intn(s.Volume()))
		dim := rng.Intn(MaxDim)
		fwd := s.Neighbor(c, dim, Fwd)
		return s.Neighbor(fwd, dim, Bwd) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiameter(t *testing.T) {
	s := MakeShape(8, 4, 4, 2, 2, 2)
	if got, want := s.Diameter(), 4+2+2+1+1+1; got != want {
		t.Fatalf("diameter = %d, want %d", got, want)
	}
}

func TestLinkIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for _, l := range AllLinks() {
		i := LinkIndex(l)
		if i < 0 || i >= NumLinks {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
		if got := LinkAt(i); got != l {
			t.Fatalf("LinkAt(LinkIndex(%v)) = %v", l, got)
		}
	}
	if len(seen) != NumLinks {
		t.Fatalf("enumerated %d links, want %d", len(seen), NumLinks)
	}
}

func TestLinkOpposite(t *testing.T) {
	for _, l := range AllLinks() {
		o := l.Opposite()
		if o.Dim != l.Dim || o.Dir != -l.Dir {
			t.Fatalf("opposite of %v = %v", l, o)
		}
		if o.Opposite() != l {
			t.Fatalf("double opposite of %v", l)
		}
	}
}

// TestLinkStringMatchesFmt: the table behind Link.String names every
// link exactly as the fmt form it replaced.
func TestLinkStringMatchesFmt(t *testing.T) {
	for _, l := range AllLinks() {
		sign := "+"
		if l.Dir == Bwd {
			sign = "-"
		}
		if got, want := l.String(), fmt.Sprintf("%s%d", sign, l.Dim); got != want {
			t.Errorf("Link%+v.String() = %q, want %q", l, got, want)
		}
	}
}

func TestFoldValidation(t *testing.T) {
	m := MakeShape(8, 4, 4, 2, 2, 2)
	if _, err := NewFold(m, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}); err != nil {
		t.Fatalf("identity axes rejected: %v", err)
	}
	// Missing machine dimension.
	if _, err := NewFold(m, [][]int{{0}, {1}, {2}, {3}, {4}}); err == nil {
		t.Fatal("missing dim accepted")
	}
	// Duplicate machine dimension.
	if _, err := NewFold(m, [][]int{{0, 1}, {1}, {2}, {3}, {4}, {5}}); err == nil {
		t.Fatal("duplicate dim accepted")
	}
	// Odd slowest extent in a folded axis cannot close the serpentine.
	modd := MakeShape(4, 3)
	if _, err := NewFold(modd, [][]int{{0, 1}}); err == nil {
		t.Fatal("odd serpentine accepted")
	}
	// Odd fastest extent is fine.
	if _, err := NewFold(MakeShape(3, 4), [][]int{{0, 1}}); err != nil {
		t.Fatalf("odd fastest extent rejected: %v", err)
	}
}

func TestFoldRoundTrip(t *testing.T) {
	m := MakeShape(8, 4, 4, 2, 2, 2)
	// Fold the 6-D machine into a 4-D logical torus: 8x4=32, 4x2=8, 2, 2.
	f, err := NewFold(m, [][]int{{0, 1}, {2, 3}, {4}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	want := MakeShape(32, 8, 2, 2)
	if f.Logical() != want {
		t.Fatalf("logical shape %v, want %v", f.Logical(), want)
	}
	seen := map[Coord]bool{}
	ls := f.Logical()
	for r := 0; r < ls.Volume(); r++ {
		lc := ls.CoordOf(r)
		mc := f.ToMachine(lc)
		if !m.Contains(mc) {
			t.Fatalf("machine coord %v out of range", mc)
		}
		if seen[mc] {
			t.Fatalf("machine coord %v hit twice", mc)
		}
		seen[mc] = true
		if got := f.ToLogical(mc); got != lc {
			t.Fatalf("round trip %v -> %v -> %v", lc, mc, got)
		}
	}
	if len(seen) != m.Volume() {
		t.Fatalf("fold covers %d machine nodes, want %d", len(seen), m.Volume())
	}
}

// TestFoldPreservesNeighbours is the key property from §2.2: after folding,
// logical nearest neighbours (including the torus wrap-around step) are
// machine nearest neighbours.
func TestFoldPreservesNeighbours(t *testing.T) {
	m := MakeShape(8, 4, 4, 2, 2, 2)
	adjacent := func(a, b Coord) bool {
		for _, l := range AllLinks() {
			if m.Neighbor(a, l.Dim, l.Dir) == b {
				return true
			}
		}
		return false
	}
	folds := [][][]int{
		{{0}, {1}, {2}, {3}, {4}, {5}}, // 6-D identity
		{{0, 1}, {2, 3}, {4}, {5}},     // 4-D
		{{0, 1}, {2}, {3}, {4}, {5}},   // 5-D
		{{0, 1, 2}, {3, 4}, {5}},       // 3-D
		{{0, 1, 2, 3}, {4, 5}},         // 2-D
		{{0, 1, 2, 3, 4, 5}},           // 1-D: the whole machine as a ring
		{{2, 0}, {5, 1}, {3}, {4}},     // 4-D, shuffled machine dims
	}
	for _, axes := range folds {
		f, err := NewFold(m, axes)
		if err != nil {
			t.Fatalf("axes %v: %v", axes, err)
		}
		ls := f.Logical()
		for r := 0; r < ls.Volume(); r++ {
			lc := ls.CoordOf(r)
			mc := f.ToMachine(lc)
			for a := range axes {
				for _, dir := range []Dir{Fwd, Bwd} {
					nlc := lc
					nlc[a] = (lc[a] + int(dir) + ls[a]) % ls[a]
					nmc := f.ToMachine(nlc)
					if !adjacent(mc, nmc) {
						t.Fatalf("axes %v: logical step %v->%v maps to machine %v->%v, not one hop",
							axes, lc, nlc, mc, nmc)
					}
				}
			}
		}
	}
}

func TestMachineLink(t *testing.T) {
	m := MakeShape(4, 4)
	f, err := NewFold(m, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ls := f.Logical()
	for r := 0; r < ls.Volume(); r++ {
		lc := ls.CoordOf(r)
		for _, dir := range []Dir{Fwd, Bwd} {
			from, link, to := f.MachineLink(lc, 0, dir)
			if got := m.Neighbor(from, link.Dim, link.Dir); got != to {
				t.Fatalf("link %v from %v does not reach %v (got %v)", link, from, to, got)
			}
		}
	}
}

func TestIdentityFold(t *testing.T) {
	m := MakeShape(4, 4, 2)
	f := IdentityFold(m)
	if f.Logical() != MakeShape(4, 4, 2) {
		t.Fatalf("logical = %v", f.Logical())
	}
	c := Coord{1, 2, 1, 0, 0, 0}
	if f.ToMachine(c) != c {
		t.Fatalf("identity fold moved %v to %v", c, f.ToMachine(c))
	}
}

// TestMachineLinkSenderReceiverConsistency is the wiring invariant that
// global operations depend on: the link a node transmits on for a +axis
// step is, seen from the destination, exactly the opposite of the link
// the destination names for its -axis step — for every fold, including
// extent-2 machine dimensions where +1 and -1 hops reach the same node
// over different wires.
func TestMachineLinkSenderReceiverConsistency(t *testing.T) {
	shapes := []struct {
		m    Shape
		axes [][]int
	}{
		{MakeShape(4, 2, 2), [][]int{{0}, {1}, {2}}},
		{MakeShape(4, 2, 2), [][]int{{0, 1, 2}}},
		{MakeShape(2, 2), [][]int{{0}, {1}}},
		{MakeShape(2, 2, 2, 2), [][]int{{0, 1}, {2, 3}}},
		{MakeShape(8, 4), [][]int{{1, 0}}},
	}
	for _, c := range shapes {
		f, err := NewFold(c.m, c.axes)
		if err != nil {
			t.Fatal(err)
		}
		ls := f.Logical()
		for r := 0; r < ls.Volume(); r++ {
			lc := ls.CoordOf(r)
			for a := range c.axes {
				if ls[a] <= 1 {
					continue
				}
				_, sendLink, to := f.MachineLink(lc, a, Fwd)
				next := lc
				next[a] = (lc[a] + 1) % ls[a]
				recvFrom, recvLink, back := f.MachineLink(next, a, Bwd)
				if recvLink != sendLink.Opposite() {
					t.Fatalf("fold %v: step %v->%v sends on %v but receiver listens on %v",
						c.axes, lc, next, sendLink, recvLink)
				}
				if recvFrom != to || back != f.ToMachine(lc) {
					t.Fatalf("fold %v: coordinates inconsistent for step %v->%v", c.axes, lc, next)
				}
			}
		}
	}
}
