package driver

import (
	"bytes"
	"strings"
	"testing"
)

// lintDir runs Lint over one fixture directory with explicit file
// lists, capturing output — the same path the qcdoclint command takes,
// minus go list.
func lintDir(t *testing.T, pkg Package, opts Options) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	opts.Out = &buf
	opts.Err = &buf
	exit := Lint([]Package{pkg}, opts)
	return exit, buf.String()
}

func TestWaivedFindingLintsClean(t *testing.T) {
	exit, out := lintDir(t, Package{
		ImportPath: "waived",
		Dir:        "testdata/waived",
		GoFiles:    []string{"waived.go"},
	}, Options{})
	if exit != 0 {
		t.Fatalf("waived fixture: exit %d, output:\n%s", exit, out)
	}
	if out != "" {
		t.Fatalf("waived fixture: unexpected output:\n%s", out)
	}
}

// TestStaleMarkerFails pins the waiver lifecycle's teeth: a marker
// that suppresses nothing is itself a lint failure.
func TestStaleMarkerFails(t *testing.T) {
	exit, out := lintDir(t, Package{
		ImportPath: "stale",
		Dir:        "testdata/stale",
		GoFiles:    []string{"stale.go"},
	}, Options{})
	if exit != 1 {
		t.Fatalf("stale fixture: exit %d (want 1), output:\n%s", exit, out)
	}
	if !strings.Contains(out, "stale waiver") || !strings.Contains(out, "crossalias-ok") {
		t.Fatalf("stale fixture: missing stale-waiver finding:\n%s", out)
	}
}

func TestUnknownMarkerFails(t *testing.T) {
	exit, out := lintDir(t, Package{
		ImportPath: "unknown",
		Dir:        "testdata/unknown",
		GoFiles:    []string{"unknown.go"},
	}, Options{})
	if exit != 1 {
		t.Fatalf("unknown fixture: exit %d (want 1), output:\n%s", exit, out)
	}
	if !strings.Contains(out, "unknown marker") {
		t.Fatalf("unknown fixture: missing unknown-marker finding:\n%s", out)
	}
}

// TestTestsFlag pins -tests semantics: the finding lives in a
// _test.go file, so only a Tests run sees it.
func TestTestsFlag(t *testing.T) {
	pkg := Package{
		ImportPath:  "testy",
		Dir:         "testdata/testy",
		GoFiles:     []string{"testy.go"},
		TestGoFiles: []string{"testy_test.go"},
	}
	if exit, out := lintDir(t, pkg, Options{}); exit != 0 {
		t.Fatalf("without Tests: exit %d, output:\n%s", exit, out)
	}
	exit, out := lintDir(t, pkg, Options{Tests: true})
	if exit != 1 || !strings.Contains(out, "cross-shard closure captures t") {
		t.Fatalf("with Tests: exit %d, output:\n%s", exit, out)
	}
}
