// Package driver runs the qcdoclint analyzer suite over go-list-resolved
// packages and owns everything around the analyzers themselves: file
// selection (including in-package _test.go variants), finding
// collection and ordering, and the waiver lifecycle.
//
// The waiver lifecycle is the part that keeps marker comments honest.
// Every //qcdoclint:<kind> marker in linted source is checked against
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
	"qcdoc/internal/analysis/load"
)

// Suite is the analyzer suite in reporting order.
var Suite = []*analysis.Analyzer{
	crossalias.Analyzer,
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

// Options select what Lint runs and where it reports.
type Options struct {
	Tests bool // also load in-package _test.go files

	Out io.Writer // findings (default os.Stdout)
	Err io.Writer // operational errors (default os.Stderr)
}

// finding is one diagnostic, positioned and attributed.
type finding struct {
	Pos      string // file:line:col, the problem-matcher key
	Message  string
	Analyzer string
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
	var findings []finding
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
				findings = append(findings, finding{
					Pos:      p.Fset.Position(d.Pos).String(),
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
			owner := analysis.MarkerOwners[site.Marker]
			var msg string
			switch {
			case owner == "":
				msg = fmt.Sprintf("unknown marker //%s: no analyzer owns it; fix the marker name or delete it", site.Marker)
			case hits[site.Pos] == 0:
				msg = fmt.Sprintf("stale waiver: //%s suppresses no %s diagnostic; the code it excused is gone, so delete the marker", site.Marker, owner)
			default:
				continue
			}
			findings = append(findings, finding{
				Pos:      p.Fset.Position(site.Pos).String(),
				Message:  msg,
				Analyzer: "waiver",
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	for _, f := range findings {
		fmt.Fprintf(out, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
	}
	if len(findings) > 0 && exit == 0 {
		exit = 1
	}
	return exit
}
