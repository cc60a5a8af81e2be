package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// parsePct extracts a "NN.N%" cell.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage cell %q", cell)
	}
	return v
}

func rowByFirstCell(t *testing.T, tab Table, name string) []string {
	t.Helper()
	for _, r := range tab.Rows {
		if r[0] == name {
			return r
		}
	}
	t.Fatalf("%s: no row %q", tab.ID, name)
	return nil
}

func TestStaticTablesWellFormed(t *testing.T) {
	for _, tab := range Static() {
		if tab.ID == "" || tab.Title == "" {
			t.Fatalf("table missing id/title: %+v", tab)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty", tab.ID)
		}
		for _, r := range tab.Rows {
			if len(r) != len(tab.Header) {
				t.Fatalf("%s: row width %d != header %d", tab.ID, len(r), len(tab.Header))
			}
		}
		if out := tab.Format(); !strings.Contains(out, tab.ID) {
			t.Fatalf("%s: Format lost the id", tab.ID)
		}
	}
}

func TestE1Anchors(t *testing.T) {
	tab := E1()
	cases := map[string][2]float64{
		"wilson": {39, 42},
		"asqtad": {37, 39.5},
		"clover": {45.5, 48},
	}
	for name, bounds := range cases {
		r := rowByFirstCell(t, tab, name)
		eff := parsePct(t, r[2])
		if eff < bounds[0] || eff > bounds[1] {
			t.Errorf("%s model CG = %v%%, want in [%v, %v]", name, eff, bounds[0], bounds[1])
		}
	}
	dwf := parsePct(t, rowByFirstCell(t, tab, "dwf")[2])
	clv := parsePct(t, rowByFirstCell(t, tab, "clover")[2])
	if dwf <= clv {
		t.Errorf("dwf %v%% not above clover %v%%", dwf, clv)
	}
}

func TestE2SpillRow(t *testing.T) {
	tab := E2()
	r := rowByFirstCell(t, tab, "8x8x8x8")
	if r[2] != "DDR" {
		t.Fatalf("8^4 level = %s", r[2])
	}
	if eff := parsePct(t, r[3]); eff < 27 || eff > 33 {
		t.Fatalf("8^4 efficiency %v%%, want ~30%%", eff)
	}
	small := rowByFirstCell(t, tab, "4x4x4x4")
	if small[2] != "EDRAM" {
		t.Fatal("4^4 should be EDRAM")
	}
}

func TestE5HopFormula(t *testing.T) {
	tab := E5()
	// 8x8x8x8: 28 single, 16 doubled (the paper's formulas).
	r := rowByFirstCell(t, tab, "8x8x8x8")
	if r[1] != "28" || r[2] != "16" {
		t.Fatalf("hops = %s/%s", r[1], r[2])
	}
}

func TestE9MatchesPaper(t *testing.T) {
	tab := E9()
	for _, r := range tab.Rows[:3] {
		model := strings.TrimPrefix(r[1], "$")
		paper := strings.TrimPrefix(r[2], "$")
		mv, _ := strconv.ParseFloat(model, 64)
		pv, _ := strconv.ParseFloat(paper, 64)
		if diff := mv - pv; diff > 0.005 || diff < -0.005 {
			t.Errorf("%s: $%v vs paper $%v", r[0], mv, pv)
		}
	}
}

// generated matches one generated block of EXPERIMENTS.md: the id its
// opening marker names, and the text up to the closing marker.
var generated = regexp.MustCompile(`(?s)<!-- go run \./cmd/benchtables -e (\S+) -->\n(.*?)<!-- end -->`)

// TestExperimentsMDIsGenerated regenerates every table that `go run
// ./cmd/benchtables -functional` prints and requires EXPERIMENTS.md to
// carry each exactly once, as a generated block holding exactly that
// text; a block naming no experiment fails too. It is the one pin of
// every paper number this package computes: a simulated time, an
// iteration count or a digest that moves shows here as a changed cell.
// -short checks the model tables and skips the machine simulations.
func TestExperimentsMDIsGenerated(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]string{}
	for _, m := range generated.FindAllStringSubmatch(string(doc), -1) {
		if _, dup := blocks[m[1]]; dup {
			t.Errorf("EXPERIMENTS.md carries %s twice", m[1])
		}
		blocks[m[1]] = m[2]
	}
	check := func(tab Table) {
		block, ok := blocks[tab.ID]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no generated block for %s", tab.ID)
			return
		}
		delete(blocks, tab.ID)
		if d := firstDiff(strings.TrimSpace(block), strings.TrimSpace(tab.Format())); d != "" {
			t.Errorf("EXPERIMENTS.md's %s block is not `go run ./cmd/benchtables -e %s`: %s", tab.ID, tab.ID, d)
		}
	}
	for _, tab := range Static() {
		check(tab)
	}
	for _, f := range Functional {
		if testing.Short() {
			delete(blocks, f.ID)
			continue
		}
		tab, err := f.Run()
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if tab.ID != f.ID {
			t.Errorf("Functional lists %s, its table says %s", f.ID, tab.ID)
		}
		check(tab)
	}
	for id := range blocks {
		t.Errorf("EXPERIMENTS.md has a generated block %s that names no experiment", id)
	}
}

// firstDiff names the first line where have and want part, or returns
// "" when they are equal.
func firstDiff(have, want string) string {
	h, w := strings.Split(have, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(h) || i < len(w); i++ {
		var hl, wl string
		if i < len(h) {
			hl = h[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if hl != wl {
			return fmt.Sprintf("line %d is\n\t%s\nwant\n\t%s", i+1, hl, wl)
		}
	}
	return ""
}
