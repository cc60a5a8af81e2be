package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestSpecMatchesTables holds BENCHMARK.json to the tables it is
// generated from and to the driver's limits.
func TestSpecMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(benchmarkSpec())
	if err := json.Unmarshal(b, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Error("BENCHMARK.json differs from `go -C bench run . -spec`; regenerate it")
	}

	s := benchmarkSpec()
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range s.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v outside the contract", m)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

// TestSmoke runs every workload's dark and traced pass at the smoke
// size and checks what a driver run would print: every metric of the
// pass exactly, finite, no failed operation; and that every per-layer
// metric is produced by at least one workload rather than zero-filled.
func TestSmoke(t *testing.T) {
	probes := runProbes(true)
	produced := map[string]bool{}
	for _, w := range workloads() {
		dark, err := runDark(w, defaultSeed, true, budget{ops: 1})
		if err != nil {
			t.Fatal(err)
		}
		traced, spans, err := runTraced(w, defaultSeed, true, budget{ops: 1}, probes)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.name)
		}
		for _, c := range []struct {
			res  passResult
			defs []metricDef
		}{{dark, endToEnd()}, {traced, perLayer()}} {
			if c.res.Failed != 0 || c.res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, c.res.Traced, c.res.Failed, c.res.Attempted, c.res.Failures)
			}
			line, err := driverLine(c.res, c.defs)
			if err != nil {
				t.Error(err)
			}
			if len(line.Metrics) != len(c.defs) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", w.name, c.res.Traced, len(line.Metrics), len(c.defs))
			}
			known := map[string]bool{}
			for _, d := range c.defs {
				known[d.Name] = true
			}
			for _, name := range sortedKeys(c.res.Metrics) {
				if !known[name] {
					t.Errorf("%s traced=%v: emits %q, which BENCHMARK.json does not name", w.name, c.res.Traced, name)
				}
				produced[name] = true
			}
		}
		for _, d := range endToEnd() {
			if v := dark.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, v)
			}
		}
	}
	for _, d := range append(endToEnd(), perLayer()...) {
		if !produced[d.Name] {
			t.Errorf("no workload produces %s", d.Name)
		}
	}
}

// TestReadmeGlossary keeps the glossary complete.
func TestReadmeGlossary(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
	for _, d := range append(endToEnd(), perLayer()...) {
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not define metric %s", d.Name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// op [0,10] > solve [1,7] > {halo [2,4], kernel [4,5]}; verify [7,9].
	spans := []span{
		{Name: "op", Layer: "bench", Start: 0, End: 10, Parent: -1, Op: 1},
		{Name: "solve", Layer: "core", Start: 1, End: 7, Parent: 0, Op: 1},
		{Name: "halo", Layer: "scu", Start: 2, End: 4, Parent: 1, Op: 1},
		{Name: "kernel", Layer: "fermion", Start: 4, End: 5, Parent: 1, Op: 1},
		{Name: "verify", Layer: "fermion", Start: 7, End: 9, Parent: 0, Op: 1},
	}
	want := []float64{2, 3, 2, 1, 2}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byLayer := layerSelfSeconds(spans)
	if byLayer["fermion"] != 3 || byLayer["core"] != 3 || byLayer["bench"] != 2 || byLayer["scu"] != 2 {
		t.Errorf("layerSelfSeconds = %v", byLayer)
	}
	total := 0.0
	for _, s := range selfTimes(spans) {
		total += s
	}
	if total != 10 {
		t.Errorf("self times sum to %v, want the root's 10", total)
	}

	tr := newTracer()
	tr.begin("bench", "op")
	tr.begin("core", "solve")
	tr.end()
	tr.end()
	tr.begin("bench", "op")
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 || tr.spans[0].Op == tr.spans[2].Op {
		t.Errorf("tracer nesting wrong: %+v", tr.spans)
	}
	var dark *tracer
	dark.begin("core", "solve")
	if dark.end() != 0 {
		t.Error("nil tracer must be a no-op")
	}
}

func TestQuantiles(t *testing.T) {
	d := summarize([]float64{4, 1, 3, 2, 5})
	if d.Median != 3 || d.Q1 != 2 || d.Q3 != 4 || d.Min != 1 || d.Max != 5 || d.N != 5 {
		t.Errorf("summarize = %+v", d)
	}
	if m := median([]float64{1, 2}); m != 1.5 {
		t.Errorf("median of two = %v", m)
	}
}

// TestCompare applies the bounds to synthetic result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64, failed int) string {
		res := passResult{Workload: "rack_halo_1024n", Seed: 1, Attempted: len(wall), Failed: failed,
			Metrics: map[string]float64{"wall_s": median(wall)},
			Dists:   map[string]dist{"wall_s": summarize(wall)}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Passes: []passResult{res}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1.00, 1.01, 0.99, 1.00}, 0)
	for _, c := range []struct {
		name    string
		wall    []float64
		failed  int
		ok      bool
		verdict string
	}{
		{"same", []float64{1.01, 1.00, 1.02, 1.00}, 0, true, "within bound"},
		{"slower", []float64{1.40, 1.41, 1.39, 1.40}, 0, false, "BREACH"},
		{"faster", []float64{0.60, 0.61, 0.59, 0.60}, 0, true, "better"},
		{"noisy", []float64{0.60, 1.00, 1.60, 1.05}, 0, true, "unresolved"},
		{"failing", []float64{1.00, 1.00, 1.00, 1.00}, 1, false, "more failures"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write(c.name+".json", c.wall, c.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok = %v, want %v with verdict %q; output:\n%s", c.name, ok, c.ok, c.verdict, out.String())
		}
	}
	if math.IsNaN(summarize(nil).Median) {
		t.Error("summarize(nil) must be zero, not NaN")
	}
}
