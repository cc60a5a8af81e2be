package callgraph

import (
	"go/types"
	"testing"

	"qcdoc/internal/analysis"
	"qcdoc/internal/analysis/load"
)

// loadFixture type-checks testdata/src/cg and returns a Pass plus a
// name->*types.Func index over its declarations.
func loadFixture(t *testing.T) (*analysis.Pass, map[string]*types.Func) {
	t.Helper()
	ctx := load.NewContext("testdata/src")
	pkg, err := ctx.LoadDir("testdata/src/cg", "cg")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pass := &analysis.Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	return pass, nil
}

func fnByName(t *testing.T, g *Graph, name string) *types.Func {
	t.Helper()
	for fn := range g.Decls {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("fixture function %s not found", name)
	return nil
}

func TestSummaryFlags(t *testing.T) {
	pass, _ := loadFixture(t)
	g := Build(pass)

	cases := []struct {
		fn   string
		want bool
	}{
		{"laundersDirect", true},
		{"laundersViaHelper", true},
		{"cleanHelper", false},
	}
	for _, c := range cases {
		fn := fnByName(t, g, c.fn)
		if got := g.Summary(fn).LaundersPointer; got != c.want {
			t.Errorf("%s: LaundersPointer %v, want %v", c.fn, got, c.want)
		}
	}
}

func TestParamMasks(t *testing.T) {
	pass, _ := loadFixture(t)
	g := Build(pass)

	retains := []struct {
		fn  string
		bit int
	}{
		{"retainsByField", 0},
		{"newHolder", 0},
		{"retainsViaCallee", 1},
		{"storedLit", 1},
	}
	for _, c := range retains {
		fn := fnByName(t, g, c.fn)
		if got := g.Summary(fn).RetainsArgs; got&(1<<c.bit) == 0 {
			t.Errorf("%s: RetainsArgs %b missing bit %d", c.fn, got, c.bit)
		}
	}

	clean := fnByName(t, g, "cleanHelper")
	if s := g.Summary(clean); s.RetainsArgs != 0 {
		t.Errorf("cleanHelper: expected an empty mask, got %+v", s)
	}
}

// TestFixpointTerminatesOnMutualRecursion pins the termination
// guarantee: Build must return (the fixpoint is a monotone ascent over
// finite bitsets) and both ends of a mutually recursive pair inherit
// the laundering bit discovered in one of them.
func TestFixpointTerminatesOnMutualRecursion(t *testing.T) {
	pass, _ := loadFixture(t)
	done := make(chan *Graph, 1)
	go func() { done <- Build(pass) }()
	g := <-done

	for _, name := range []string{"mutualA", "mutualB"} {
		fn := fnByName(t, g, name)
		if !g.Summary(fn).LaundersPointer {
			t.Errorf("%s: mutual recursion did not propagate LaundersPointer", name)
		}
	}
}

func TestWhyChains(t *testing.T) {
	pass, _ := loadFixture(t)
	g := Build(pass)

	fn := fnByName(t, g, "laundersViaHelper")
	why := g.Why(fn)
	want := "laundersViaHelper -> laundersDirect -> uintptr conversion"
	if why != want {
		t.Errorf("Why(laundersViaHelper) = %q, want %q", why, want)
	}
	if why := g.Why(fnByName(t, g, "cleanHelper")); why != "" {
		t.Errorf("Why(cleanHelper) = %q, want empty", why)
	}
}
