// Package fleetsafe forbids package-level mutable state in simulation
// packages.
//
// The fleet substrate (DESIGN.md §14) runs N fully independent
// simulated machines concurrently in one process; its whole contract
// is that machines share nothing mutable. A package-level var is
// process-wide by construction, so in sim code it may only be one of:
//
//   - a blank var (`var _ I = (*T)(nil)` interface assertions);
//   - an error sentinel (`var ErrX = errors.New(...)`), initialized at
//     declaration and never reassigned;
//   - an immutable value table: a var of pure value type (no slice,
//     map, pointer, chan, func, or non-error interface anywhere in it)
//     that no code in the package ever writes, addresses, or calls a
//     pointer-receiver method on.
//
// Everything else — any written var, and any var whose type lets its
// contents be mutated through a shared reference even without
// reassignment — is flagged. Genuinely read-only data that has to live
// behind a reference type (a *crc32.Table, a []field descriptor table)
// carries the //qcdoclint:global-ok waiver: the reviewable record that
// a human checked nothing writes through it after initialization.
package fleetsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"qcdoc/internal/analysis"
)

// Analyzer is the fleetsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "fleetsafe",
	Doc: "forbid package-level mutable state in sim packages: every var must be a blank " +
		"assertion, an error sentinel, or a never-written pure-value table, so N machines " +
		"can run in one process sharing nothing; waive read-only reference tables with " +
		"//qcdoclint:global-ok.",
	Run: run,
}

// run flags package-level vars that could carry state between the
// process's machines.
func run(pass *analysis.Pass) (any, error) {
	// Host-side code is out of scope: the CLIs and the analysis
	// framework itself run on the host, not inside a simulated machine,
	// and a campaign driver legitimately owns process-wide state. (The
	// bare-path check keeps fixture packages like "a" analyzable.)
	path := pass.Pkg.Path()
	if path == "qcdoc" || strings.HasPrefix(path, "qcdoc/cmd/") ||
		strings.Contains(path, "/analysis/") || strings.HasSuffix(path, "/analysis") {
		return nil, nil
	}

	type global struct {
		spec *ast.ValueSpec
		name *ast.Ident
		obj  types.Object
	}
	var globals []global
	byObj := map[types.Object]int{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					byObj[obj] = len(globals)
					globals = append(globals, global{spec: vs, name: name, obj: obj})
				}
			}
		}
	}
	if len(globals) == 0 {
		return nil, nil
	}

	// One pass over every function body: find writes to (or addresses
	// of) the globals. The declaration's own initializer is not a write.
	written := make([]bool, len(globals))
	how := make([]string, len(globals))
	note := func(obj types.Object, what string) {
		if i, ok := byObj[obj]; ok && !written[i] {
			written[i] = true
			how[i] = what
		}
	}
	// rootIdent unwraps v.field, v[i], v.field[j]... to the base ident:
	// a write through any projection mutates the var.
	var rootIdent func(e ast.Expr) *ast.Ident
	rootIdent = func(e ast.Expr) *ast.Ident {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			return rootIdent(x.X)
		case *ast.IndexExpr:
			return rootIdent(x.X)
		case *ast.ParenExpr:
			return rootIdent(x.X)
		case *ast.StarExpr:
			return rootIdent(x.X)
		}
		return nil
	}
	noteExpr := func(e ast.Expr, what string) {
		if id := rootIdent(e); id != nil {
			if obj := analysis.ObjOf(pass.TypesInfo, id); obj != nil {
				note(obj, what)
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range nn.Lhs {
					noteExpr(lhs, "assigned")
				}
			case *ast.IncDecStmt:
				noteExpr(nn.X, "incremented")
			case *ast.UnaryExpr:
				if nn.Op == token.AND {
					noteExpr(nn.X, "addressed")
				}
			case *ast.CallExpr:
				// A pointer-receiver method call mutates (or may mutate)
				// the var in place: v.Lock(), v.Reset(), ...
				if sel, ok := nn.Fun.(*ast.SelectorExpr); ok {
					if s, found := pass.TypesInfo.Selections[sel]; found && s.Kind() == types.MethodVal {
						if sig, ok := s.Obj().Type().(*types.Signature); ok && sig.Recv() != nil {
							if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
								noteExpr(sel.X, "mutated via pointer-receiver method "+s.Obj().Name())
							}
						}
					}
				}
			}
			return true
		})
	}

	for i, g := range globals {
		t := g.obj.Type()
		var reason string
		switch {
		case written[i]:
			reason = how[i] + " after initialization"
		case isErrorSentinel(t, g.spec):
			continue
		case mutableThrough(t, nil):
			reason = "of reference type " + t.String() + ", mutable through shared references"
		default:
			continue // pure-value table, never written: immutable.
		}
		if pass.Suppressed(analysis.MarkerGlobalOK, g.name.Pos()) {
			continue
		}
		pass.Reportf(g.name.Pos(),
			"package-level var %s is process-wide mutable state (%s); the fleet substrate runs N machines per process sharing nothing mutable — make it per-machine, a const, or a never-written value table, or waive a verified read-only table with //qcdoclint:global-ok",
			g.name.Name, reason)
	}
	return nil, nil
}

// isErrorSentinel reports the `var ErrX = errors.New("...")` idiom: the
// var's type is exactly the universe error interface and it has an
// initializer. (Reassignment elsewhere is caught by the write pass.)
func isErrorSentinel(t types.Type, spec *ast.ValueSpec) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return false
	}
	return len(spec.Values) > 0
}

// mutableThrough reports whether a value of type t can be mutated
// through a copy of it — i.e. it contains a slice, map, pointer, chan,
// func, or non-error interface anywhere. Such a var is shared mutable
// state even if no code in this package writes it. seen breaks cycles
// through named types.
func mutableThrough(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature:
		return true
	case *types.Interface:
		// Any interface can hold a pointer; only the error sentinel
		// idiom is allowed, and that is handled before this check.
		return true
	case *types.Array:
		return mutableThrough(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if mutableThrough(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	default:
		return true // unknown type: be conservative
	}
}
