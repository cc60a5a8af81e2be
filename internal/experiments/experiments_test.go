package experiments

import (
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

// TestFunctionalSmall runs the functional experiments end to end and
// pins the E1f, E4f, E5f and E12 cells EXPERIMENTS.md quotes: simulated
// times, iteration counts and efficiencies that stay bit-identical
// across host-side changes. A pinned row lists its cells from column 1
// on; "" leaves a cell unpinned.
func TestFunctionalSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("functional experiments")
	}
	anchors := map[string]map[string][]string{
		// iterations, sim time, Mflops/node, efficiency
		"E1f": {
			"wilson":     {"16", "33.1665ms", "", "39.6%"},
			"clover":     {"17", "42.1475ms", "", "45.7%"},
			"asqtad":     {"15", "26.9452ms", "", "37.9%"},
			"dwf (Ls=4)": {"42", "294.042ms", "", "46.9%"},
		},
		"E4f": {"1 word": {"599ns"}, "24 words": {"3.911us"}},
		"E5f": {"single ring": {"1.043us"}, "doubled": {"692ns"}},
		// run 1 CRC, run 2 CRC, identical, link errors, checksums
		"E10": {"distributed Wilson CG (4 nodes)": {"", "", "true", "0", "true"}},
		// clean run, faulty run
		"E12": {
			"parity/header errors detected": {"0", "2816"},
			"hardware resends":              {"0", "45600"},
			"answers identical":             {"", "true"},
		},
	}
	for _, f := range []struct {
		name string
		run  func() (Table, error)
	}{
		{"E1f", E1Functional},
		{"E4f", E4Functional},
		{"E5f", E5Functional},
		{"E10", E10},
		{"E12", E12},
		{"E13", E13},
		{"E16", E16},
	} {
		tab, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty", f.name)
		}
		for row, want := range anchors[f.name] {
			got := rowByFirstCell(t, tab, row)
			for i, w := range want {
				if w != "" && got[1+i] != w {
					t.Errorf("%s %s %s: measured %s, want %s", f.name, row, tab.Header[1+i], got[1+i], w)
				}
			}
		}
	}
}
