// Package analysis is the simulator's static-analysis framework: a
// stdlib-only re-creation of the golang.org/x/tools/go/analysis model
// (Analyzer, Pass, Diagnostic) that qcdoclint and the analyzer test
// harness share. The container this repo builds in has no module
// proxy, so the framework is self-hosted on go/ast + go/types; the
// analyzer API mirrors x/tools closely enough that the checkers would
// port to a vettool driver unchanged.
//
// The suite (DESIGN.md §11) keeps only what no run catches: a
// shard-local reference crossing a shard boundary in a way the window
// barrier hides from the race detector (crossalias). Everything a run
// does catch is held where it runs, by tests and gates.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and the driver's
	// -list output.
	Name string
	// Doc is the one-paragraph description: which runtime property the
	// analyzer guards and how to annotate exceptions.
	Doc string
	// Run applies the analyzer to one package and reports findings via
	// pass.Report. The result value is unused by the driver (kept for
	// x/tools API shape).
	Run func(*Pass) (any, error)
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass holds one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Hits counts, per marker comment position, how many would-be
	// diagnostics that comment suppressed during this pass. The driver
	// folds the counts across passes: a marker whose total stays zero is
	// stale — it waives nothing — and is itself reported (DESIGN.md §11,
	// waiver lifecycle).
	Hits map[token.Pos]int

	markers map[string]map[string]token.Pos // marker text -> "file:line" -> comment pos
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppression markers. A marker comment on the offending line, or on
// the line directly above it, silences the corresponding analyzer for
// that line. Markers are deliberate, grep-able waivers: the reviewable
// record that a human decided the invariant does not apply there.
//
// MarkerCrossAliasOK waives crossalias: the reference crossing the
// shard boundary is, by protocol, owned or serialized on the far side
// (e.g. faultplan's barrier-serialized injection closures).
const MarkerCrossAliasOK = "qcdoclint:crossalias-ok"

// MarkerOwners maps each waiver marker to the analyzer whose
// diagnostics it suppresses. The driver uses it for stale-waiver
// detection: a marker in the tree that belongs to no active analyzer,
// or that suppresses zero diagnostics, is itself a lint finding.
var MarkerOwners = map[string]string{
	MarkerCrossAliasOK: "crossalias",
}

// Suppressed reports whether a marker comment covers the line of pos:
// the marker sits on that line or the line directly above. Each
// suppression is tallied against the covering comment in p.Hits, so the
// driver can flag markers that never suppress anything.
func (p *Pass) Suppressed(marker string, pos token.Pos) bool {
	if p.markers == nil {
		p.markers = map[string]map[string]token.Pos{}
	}
	lines, ok := p.markers[marker]
	if !ok {
		lines = map[string]token.Pos{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.Contains(c.Text, marker) {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					// The marker covers its own line (trailing comment)
					// and the next line (marker-above style).
					lines[fmt.Sprintf("%s:%d", cp.Filename, cp.Line)] = c.Pos()
					lines[fmt.Sprintf("%s:%d", cp.Filename, cp.Line+1)] = c.Pos()
				}
			}
		}
		p.markers[marker] = lines
	}
	dp := p.Fset.Position(pos)
	mpos, hit := lines[fmt.Sprintf("%s:%d", dp.Filename, dp.Line)]
	if hit {
		if p.Hits == nil {
			p.Hits = map[token.Pos]int{}
		}
		p.Hits[mpos]++
	}
	return hit
}

// A MarkerSite is one waiver-marker comment found in a package's
// source: the marker text (e.g. "qcdoclint:crossalias-ok") and the
// comment's position. The driver checks each for staleness.
type MarkerSite struct {
	Marker string
	Pos    token.Pos
}

var markerRe = regexp.MustCompile(`qcdoclint:[a-z-]+`)

// ScanMarkers lists every qcdoclint waiver marker mentioned in the
// files' comments, in file order. A comment naming several markers
// yields one site per marker.
func ScanMarkers(files []*ast.File) []MarkerSite {
	var sites []MarkerSite
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range markerRe.FindAllString(c.Text, -1) {
					sites = append(sites, MarkerSite{Marker: m, Pos: c.Pos()})
				}
			}
		}
	}
	return sites
}

// SuppressedAt reports whether the marker covers either the diagnostic
// position or the start of its enclosing statement — so one marker
// waives a multi-line statement (a wrapped panic(fmt.Sprintf(...))).
func (p *Pass) SuppressedAt(marker string, pos, stmtPos token.Pos) bool {
	if p.Suppressed(marker, pos) {
		return true
	}
	return stmtPos.IsValid() && p.Suppressed(marker, stmtPos)
}

// PkgIs reports whether an import path denotes the named simulator
// package: the path is exactly name or ends in "/name". Matching by
// tail lets analyzer fixtures stand in a fake "event" package for the
// real qcdoc/internal one.
func PkgIs(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// ReceiverOf resolves a method call expression to (package path,
// receiver type name, method name). It follows both method selections
// (x.M() where x is a value) and package-qualified calls (pkg.F()).
// The bool result reports whether the callee resolved to a *types.Func.
func ReceiverOf(info *types.Info, call *ast.CallExpr) (pkgPath, recvName, funcName string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		if id, isID := call.Fun.(*ast.Ident); isID {
			if fn, isFn := info.Uses[id].(*types.Func); isFn && fn.Pkg() != nil {
				return fn.Pkg().Path(), "", fn.Name(), true
			}
		}
		return "", "", "", false
	}
	if s, found := info.Selections[sel]; found {
		fn, isFn := s.Obj().(*types.Func)
		if !isFn || fn.Pkg() == nil {
			return "", "", "", false
		}
		return fn.Pkg().Path(), namedName(s.Recv()), fn.Name(), true
	}
	// Package-qualified function: pkg.F(...).
	if fn, isFn := info.Uses[sel.Sel].(*types.Func); isFn && fn.Pkg() != nil {
		recv := ""
		if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
			recv = namedName(sig.Recv().Type())
		}
		return fn.Pkg().Path(), recv, fn.Name(), true
	}
	return "", "", "", false
}

// namedName returns the name of the named type under pointers and
// generic instantiation, or "".
func namedName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return ""
		}
	}
}

// DeepValue reports whether a value of type t is safe to copy across a
// shard boundary: it transitively contains no pointer, slice, map,
// channel, function, or interface, so the copy cannot alias mutable
// state the sender retains. This is the crossalias analyzer's core
// predicate, shared here because fixtures and future analyzers need the
// same notion.
func DeepValue(t types.Type) bool {
	return deepValue(t, map[types.Type]bool{})
}

func deepValue(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true // recursion through a named type: judged at its uses
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		// unsafe.Pointer is basic-kinded but is exactly the laundering
		// primitive crossalias exists to catch.
		return u.Kind() != types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !deepValue(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return deepValue(u.Elem(), seen)
	default:
		// Pointer, Slice, Map, Chan, Signature, Interface, Tuple.
		return false
	}
}

// RootIdent returns the base identifier of an lvalue-ish expression:
// the x in x, x.f, x[i], *x, (x). Nil when the expression has no such
// base (a call result, a literal).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch ee := e.(type) {
		case *ast.Ident:
			return ee
		case *ast.SelectorExpr:
			e = ee.X
		case *ast.IndexExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		case *ast.ParenExpr:
			e = ee.X
		default:
			return nil
		}
	}
}

// ObjOf resolves an identifier to its object (use or definition).
func ObjOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
