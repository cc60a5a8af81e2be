// Package driver runs the qcdoclint analyzer suite over go-list-resolved
// packages and owns everything around the analyzers themselves: file
// selection (including in-package _test.go variants), finding
// collection and ordering, JSON rendering, and the waiver lifecycle.
//
// The waiver lifecycle is the part that keeps marker comments honest.
// Every //qcdoclint:<kind> marker in linted source is inventoried with
// the analyzer it belongs to and the number of diagnostics it actually
// suppressed in this run (suppression hits are counted by
// analysis.Pass at report-decision time, so the count reflects real
// reports that would otherwise have fired). A marker with zero hits is
// stale — the code it excused was fixed, or the marker never matched —
// and staleness is itself a lint failure, as is a marker kind no
// analyzer owns. The analysis implementation packages and the driver
// command are exempt from marker scanning: their comments discuss
// markers by name.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"qcdoc/internal/analysis"
	"qcdoc/internal/analysis/crossalias"
	"qcdoc/internal/analysis/detflow"
	"qcdoc/internal/analysis/fleetsafe"
	"qcdoc/internal/analysis/load"
	"qcdoc/internal/analysis/obssafe"
	"qcdoc/internal/analysis/simtime"
)

// Suite is the analyzer suite in reporting order.
var Suite = []*analysis.Analyzer{
	simtime.Analyzer,
	detflow.Analyzer,
	crossalias.Analyzer,
	fleetsafe.Analyzer,
	obssafe.Analyzer,
}

// Package is the subset of `go list -json` the driver needs: where a
// package lives and which files the current build configuration
// actually compiles (so build tags and file suffixes are honored
// without reimplementing them).
type Package struct {
	ImportPath  string
	Dir         string
	GoFiles     []string
	TestGoFiles []string
}

// Options select what Lint runs and how it reports.
type Options struct {
	Tests   bool // also load in-package _test.go files
	JSON    bool // machine-readable output
	Waivers bool // print the waiver inventory instead of findings

	Out io.Writer // findings / inventory (default os.Stdout)
	Err io.Writer // operational errors (default os.Stderr)
}

// Finding is one diagnostic, positioned and attributed.
type Finding struct {
	Pos      string `json:"pos"` // file:line:col, the problem-matcher key
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// Waiver is one marker comment's lifecycle record for a run.
type Waiver struct {
	Pos      string `json:"pos"` // file:line
	Marker   string `json:"marker"`
	Analyzer string `json:"analyzer,omitempty"` // empty: no analyzer owns the marker
	Hits     int    `json:"hits"`               // diagnostics suppressed this run
	Stale    bool   `json:"stale"`
}

// List resolves package patterns through the go tool, so qcdoclint
// sees exactly the files a build would.
func List(patterns []string) ([]Package, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,TestGoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []Package
	dec := json.NewDecoder(&out)
	for dec.More() {
		var lp Package
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// markerExempt reports whether a package's comments are allowed to
// mention markers without being waivers: the analyzers and their
// driver document marker names in prose.
func markerExempt(importPath string) bool {
	return strings.Contains(importPath, "internal/analysis") ||
		strings.HasSuffix(importPath, "cmd/qcdoclint")
}

// Lint runs the suite over the packages and returns the process exit
// status: 0 clean, 1 findings (including stale or unknown waivers),
// 2 operational error.
func Lint(pkgs []Package, opts Options) int {
	out, errw := opts.Out, opts.Err
	if out == nil {
		out = os.Stdout
	}
	if errw == nil {
		errw = os.Stderr
	}

	ctx := load.NewContext()
	exit := 0
	var findings []Finding
	var waivers []Waiver
	for _, lp := range pkgs {
		files := append([]string{}, lp.GoFiles...)
		if opts.Tests {
			files = append(files, lp.TestGoFiles...)
		}
		if len(files) == 0 {
			continue
		}
		p, err := ctx.LoadFiles(lp.Dir, lp.ImportPath, files)
		if err != nil {
			fmt.Fprintf(errw, "qcdoclint: %s: %v\n", lp.ImportPath, err)
			exit = 2
			continue
		}
		hits := map[token.Pos]int{}
		for _, a := range Suite {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := p.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					Pos:      pos.String(),
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  d.Message,
					Analyzer: name,
				})
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(errw, "qcdoclint: %s on %s: %v\n", a.Name, lp.ImportPath, err)
				exit = 2
			}
			for pos, n := range pass.Hits {
				hits[pos] += n
			}
		}
		if markerExempt(lp.ImportPath) {
			continue
		}
		for _, site := range analysis.ScanMarkers(p.Files) {
			pos := p.Fset.Position(site.Pos)
			w := Waiver{
				Pos:      fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
				Marker:   site.Marker,
				Analyzer: analysis.MarkerOwners[site.Marker],
				Hits:     hits[site.Pos],
			}
			w.Stale = w.Hits == 0
			waivers = append(waivers, w)
			switch {
			case w.Analyzer == "":
				findings = append(findings, Finding{
					Pos:  fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column),
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message:  fmt.Sprintf("unknown marker //%s: no analyzer owns it; fix the marker name or delete it", site.Marker),
					Analyzer: "waiver",
				})
			case w.Stale:
				findings = append(findings, Finding{
					Pos:  fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column),
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message:  fmt.Sprintf("stale waiver: //%s suppresses no %s diagnostic; the code it excused is gone, so delete the marker", site.Marker, w.Analyzer),
					Analyzer: "waiver",
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	sort.Slice(waivers, func(i, j int) bool { return waivers[i].Pos < waivers[j].Pos })

	if opts.Waivers {
		return reportWaivers(out, waivers, opts.JSON, exit)
	}
	if opts.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(errw, "qcdoclint: encoding findings: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(out, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 && exit == 0 {
		exit = 1
	}
	return exit
}

// reportWaivers prints the inventory. Stale and unknown markers fail
// the run exactly as they do in lint mode, so `-waivers` is safe to
// use as a gate on its own.
func reportWaivers(out io.Writer, waivers []Waiver, asJSON bool, exit int) int {
	bad := 0
	for _, w := range waivers {
		if w.Stale || w.Analyzer == "" {
			bad++
		}
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if waivers == nil {
			waivers = []Waiver{}
		}
		if err := enc.Encode(waivers); err != nil {
			return 2
		}
	} else {
		for _, w := range waivers {
			state := fmt.Sprintf("suppresses %d diagnostic(s)", w.Hits)
			owner := w.Analyzer
			if owner == "" {
				owner, state = "?", "UNKNOWN marker"
			} else if w.Stale {
				state = "STALE: suppresses nothing"
			}
			fmt.Fprintf(out, "%s: //%s (%s) %s\n", w.Pos, w.Marker, owner, state)
		}
		fmt.Fprintf(out, "%d waiver(s), %d stale/unknown\n", len(waivers), bad)
	}
	if bad > 0 && exit == 0 {
		exit = 1
	}
	return exit
}
