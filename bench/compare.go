package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// loadResults reads result files: one file, or every *.json of a
// directory (a set of driver runs) except trace.json.
func loadResults(path string) ([]passResult, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		all, err := filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		paths = paths[:0]
		for _, p := range all {
			if filepath.Base(p) != "trace.json" {
				paths = append(paths, p)
			}
		}
	}
	var passes []passResult
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		passes = append(passes, f.Passes...)
	}
	return passes, nil
}

// cell collects one (metric, workload) pair's values over the passes of
// one side: the per-operation quartiles when a single pass supplies
// them, otherwise the spread of the passes' medians.
func cell(passes []passResult, workload, metric string) (dist, bool) {
	var medians []float64
	var single dist
	for _, p := range passes {
		if p.Workload != workload || p.Traced {
			continue
		}
		v, ok := p.Metrics[metric]
		if !ok {
			continue
		}
		medians = append(medians, v)
		single = p.Dists[metric]
	}
	switch len(medians) {
	case 0:
		return dist{}, false
	case 1:
		if single.N == 0 {
			single = dist{Median: medians[0], Q1: medians[0], Q3: medians[0], Min: medians[0], Max: medians[0], N: 1}
		}
		return single, true
	}
	return summarize(medians), true
}

// compareFiles applies each end-to-end metric's bound to every workload
// present on both sides: one row per (metric, workload) with both
// medians, their quartiles, and B's median over A's. A cell whose
// run-to-run spread exceeds the bound is unresolved, unless every B
// reading beats every A reading. It reports false on a breach, on a
// larger fail_ratio, or when an exact per-layer count differs.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-20s %12s %24s %12s %24s %9s  %s\n",
		"metric", "workload", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "verdict")
	for _, wl := range workloads() {
		for _, d := range endToEnd() {
			ca, okA := cell(a, wl.name, d.Name)
			cb, okB := cell(b, wl.name, d.Name)
			if !okA || !okB {
				continue
			}
			ratio := cb.Median / ca.Median
			spread := max(ca.Q3-ca.Q1, cb.Q3-cb.Q1) / ca.Median
			verdict := "within bound"
			switch {
			case ratio > 1+d.Bound && (spread <= d.Bound || cb.Min > ca.Max):
				verdict, ok = fmt.Sprintf("BREACH (bound %.0f %%)", 100*d.Bound), false
			case spread > d.Bound && !(cb.Max < ca.Min):
				verdict = fmt.Sprintf("unresolved (spread %.1f %% > bound %.0f %%)", 100*spread, 100*d.Bound)
			case ratio < 1-d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-20s %12.6g %24s %12.6g %24s %9.4f  %s\n", d.Name, wl.name,
				ca.Median, fmt.Sprintf("[%.6g, %.6g]", ca.Q1, ca.Q3),
				cb.Median, fmt.Sprintf("[%.6g, %.6g]", cb.Q1, cb.Q3), ratio, verdict)
		}
		fa, na := failures(a, wl.name)
		fb, nb := failures(b, wl.name)
		if na > 0 && nb > 0 {
			ra, rb := float64(fa)/float64(na), float64(fb)/float64(nb)
			verdict := "ok"
			if rb > ra {
				verdict, ok = "BREACH (more failures)", false
			}
			fmt.Fprintf(w, "%-18s %-20s %12.6g %24s %12.6g %24s %9s  %s\n", "fail_ratio", wl.name,
				ra, fmt.Sprintf("%d of %d", fa, na), rb, fmt.Sprintf("%d of %d", fb, nb), "", verdict)
		}
		for _, diff := range exactDiffs(a, b, wl.name) {
			fmt.Fprintln(w, diff)
			ok = false
		}
	}
	return ok, nil
}

func failures(passes []passResult, workload string) (failed, attempted int) {
	for _, p := range passes {
		if p.Workload == workload {
			failed += p.Failed
			attempted += p.Attempted
		}
	}
	return failed, attempted
}

// exactDiffs lists the simulated counts that differ between the two
// sides' traced passes at the same seed: per-layer metrics counted in
// events, words, bytes, cycles or flops repeat exactly for one program,
// and so does the operation digest.
func exactDiffs(a, b []passResult, workload string) []string {
	find := func(ps []passResult) *passResult {
		for i := range ps {
			if ps[i].Workload == workload && ps[i].Traced {
				return &ps[i]
			}
		}
		return nil
	}
	pa, pb := find(a), find(b)
	if pa == nil || pb == nil || pa.Seed != pb.Seed {
		return nil
	}
	var out []string
	if pa.Digest != pb.Digest {
		out = append(out, fmt.Sprintf("%-18s %-20s digest %s vs %s  DIFFERS", "digest", workload, pa.Digest, pb.Digest))
	}
	for _, d := range perLayer() {
		exact := d.Unit == "count" || d.Unit == "B" || d.Unit == "cycles" || d.Unit == "flop" || d.Unit == "flag"
		if !exact || strings.Contains(d.Name, ".probe_") {
			continue
		}
		if va, vb := pa.Metrics[d.Name], pb.Metrics[d.Name]; va != vb {
			out = append(out, fmt.Sprintf("%-18s %-20s %v vs %v  DIFFERS (exact count)", d.Name, workload, va, vb))
		}
	}
	return out
}
