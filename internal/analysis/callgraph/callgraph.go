// Package callgraph gives crossalias whole-package reasoning: a
// conservative static call graph over one type-checked package plus
// per-function summaries computed by fixpoint propagation.
//
// A lexical checker misses a shard-local reference laundered through
// one helper call — a cross-shard closure that captures a pointer via a
// constructor, or a payload word computed by a helper that converts a
// pointer to an integer. This package closes that hole: it records, for
// every function declared in the package, whether the function
// converts a pointer to an integer, directly or by returning a
// same-package callee's result (LaundersPointer), plus a per-parameter
// bitmask of which parameters the function retains beyond the call
// (RetainsArgs — stored into a field, a global, a returned composite,
// or a non-invoked closure).
//
// Conservatism runs the same direction as crossalias: resolution is
// static and same-package (cross-package callees are assumed
// effect-free), and func literals are folded into their enclosing
// function only when immediately invoked — a literal handed to a
// registrar executes in that registrar's context, which crossalias
// judges at the registration site instead. The fixpoint is a monotone
// ascent over finite bitsets, so it terminates on any call graph,
// mutual recursion included (TestFixpointTerminatesOnMutualRecursion).
package callgraph

import (
	"go/ast"
	"go/types"

	"qcdoc/internal/analysis"
)

// Summary is one function's interprocedural facts.
type Summary struct {
	// LaundersPointer: the function converts a pointer to an integer
	// (uintptr/unsafe), the primitive that smuggles an address through
	// a by-value payload. It propagates to callers that return the
	// callee's result.
	LaundersPointer bool
	// RetainsArgs bit i: parameter i is stored somewhere that outlives
	// the call (receiver/struct field, package var, returned composite
	// literal, non-invoked closure, or a retaining position of a
	// same-package callee).
	RetainsArgs uint32
}

// Graph is the call graph and summary table of one package.
type Graph struct {
	Pkg   *types.Package
	Decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*Summary
	// retCalls: same-package callees whose result appears in a return
	// expression, for LaundersPointer propagation.
	retCalls map[*types.Func][]*types.Func
	// argEdges: (caller, caller-param i) forwarded to (callee, callee
	// param k) — the lattice edges for RetainsArgs.
	argEdges map[*types.Func][]argEdge
	// via records the callee LaundersPointer arrived through, and
	// direct the conversion that seeded it, so Why can print the chain.
	via    map[*types.Func]*types.Func
	direct map[*types.Func]string
}

type argEdge struct {
	fromParam int
	callee    *types.Func
	toParam   int
}

// Summary returns fn's summary; the zero Summary for functions the
// graph does not know (cross-package, interface methods).
func (g *Graph) Summary(fn *types.Func) Summary {
	if s, ok := g.sums[fn]; ok {
		return *s
	}
	return Summary{}
}

// Why returns the call chain that made fn launder a pointer, rendered
// like "helper -> addrOf -> uintptr conversion", or "" when it does
// not. The chain is a witness, not an enumeration: one
// shortest-discovered path.
func (g *Graph) Why(fn *types.Func) string {
	s, ok := g.sums[fn]
	if !ok || !s.LaundersPointer {
		return ""
	}
	out := fn.Name()
	for seen := map[*types.Func]bool{}; !seen[fn]; {
		seen[fn] = true
		if next := g.via[fn]; next != nil {
			out += " -> " + next.Name()
			fn = next
			continue
		}
		if d := g.direct[fn]; d != "" {
			out += " -> " + d
		}
		break
	}
	return out
}

// Build constructs the call graph and runs the summary fixpoint for the
// pass's package.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		Pkg:      pass.Pkg,
		Decls:    map[*types.Func]*ast.FuncDecl{},
		sums:     map[*types.Func]*Summary{},
		retCalls: map[*types.Func][]*types.Func{},
		argEdges: map[*types.Func][]argEdge{},
		via:      map[*types.Func]*types.Func{},
		direct:   map[*types.Func]string{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.Decls[fn] = fd
				g.sums[fn] = &Summary{}
			}
		}
	}
	for fn, fd := range g.Decls {
		g.seed(pass, fn, fd)
	}
	g.fixpoint()
	return g
}

// paramIndex maps a function's parameter objects to their positions.
func paramIndex(fn *types.Func) map[types.Object]int {
	sig := fn.Type().(*types.Signature)
	idx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		idx[sig.Params().At(i)] = i
	}
	return idx
}

// CalleeFunc resolves a call to its static *types.Func target, if any.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := analysis.ObjOf(info, fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if s, found := info.Selections[fun]; found {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
		} else if fn, ok := analysis.ObjOf(info, fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// seed records fn's direct facts and call edges by one walk of its
// body. Func literals are folded in only when immediately invoked;
// otherwise their effects belong to whatever context eventually runs
// them, and a literal capturing a parameter retains it.
func (g *Graph) seed(pass *analysis.Pass, fn *types.Func, fd *ast.FuncDecl) {
	sum := g.sums[fn]
	params := paramIndex(fn)
	info := pass.TypesInfo

	// paramRoots returns the parameter bits mentioned in the node (the
	// param itself, &param, param.field, param[i]).
	paramRoots := func(e ast.Node) uint32 {
		var bits uint32
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if i, ok := params[analysis.ObjOf(info, id)]; ok && i < 32 {
					bits |= 1 << i
				}
			}
			return true
		})
		return bits
	}

	// nonLocalLValue: assigning through it stores beyond the frame —
	// a field, an element, a deref, or a package-level variable.
	nonLocalLValue := func(e ast.Expr) bool {
		switch lv := e.(type) {
		case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
			return true
		case *ast.Ident:
			if o := analysis.ObjOf(info, lv); o != nil && o.Parent() == pass.Pkg.Scope() {
				return true
			}
		}
		return false
	}

	var inReturn int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			// Only fold the body in when the literal is invoked on the
			// spot; handled at the enclosing CallExpr below. Here the
			// literal is being stored or passed: any parameter it
			// captures is retained.
			sum.RetainsArgs |= paramRoots(nn.Body)
			return false

		case *ast.CompositeLit:
			// A parameter packed into a composite literal is treated as
			// retained wherever the literal flows — the constructor-
			// laundering pattern crossalias exists to catch.
			sum.RetainsArgs |= paramRoots(nn)
			return true

		case *ast.CallExpr:
			if lit, ok := nn.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal: its body is this
				// function's own control flow.
				for _, arg := range nn.Args {
					ast.Inspect(arg, walk)
				}
				ast.Inspect(lit.Body, walk)
				return false
			}
			if callee := CalleeFunc(info, nn); callee != nil && callee.Pkg() == g.Pkg {
				// Only calls to declared functions get edges: an
				// interface method of this package resolves here too,
				// but has no body and no summary to propagate from.
				if _, known := g.sums[callee]; known && callee != fn {
					if inReturn > 0 {
						g.retCalls[fn] = append(g.retCalls[fn], callee)
					}
					csig := callee.Type().(*types.Signature)
					for k, arg := range nn.Args {
						if k >= csig.Params().Len() {
							if !csig.Variadic() || csig.Params().Len() == 0 {
								continue
							}
							k = csig.Params().Len() - 1
						}
						for i := 0; i < 32; i++ {
							if paramRoots(arg)&(1<<i) != 0 {
								g.argEdges[fn] = append(g.argEdges[fn],
									argEdge{fromParam: i, callee: callee, toParam: k})
							}
						}
					}
				}
			}
			if !sum.LaundersPointer && UintptrOfPointer(info, nn) {
				sum.LaundersPointer = true
				g.direct[fn] = "uintptr conversion"
			}
			return true

		case *ast.AssignStmt:
			for i, rhs := range nn.Rhs {
				var lhs ast.Expr
				if i < len(nn.Lhs) {
					lhs = nn.Lhs[i]
				} else if len(nn.Lhs) > 0 {
					lhs = nn.Lhs[0]
				}
				if lhs != nil && nonLocalLValue(lhs) {
					sum.RetainsArgs |= paramRoots(rhs)
				}
			}
			return true

		case *ast.ReturnStmt:
			inReturn++
			for _, e := range nn.Results {
				if _, ok := e.(*ast.CompositeLit); ok {
					sum.RetainsArgs |= paramRoots(e)
				}
				if _, ok := e.(*ast.UnaryExpr); ok {
					sum.RetainsArgs |= paramRoots(e)
				}
				ast.Inspect(e, walk)
			}
			inReturn--
			return false
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// fixpoint propagates summaries along call edges until nothing changes.
// Every step only sets bits in finite bitsets, so the ascent terminates
// on any graph, cycles and mutual recursion included.
func (g *Graph) fixpoint() {
	for changed := true; changed; {
		changed = false
		for fn, sum := range g.sums {
			for _, callee := range g.retCalls[fn] {
				if g.sums[callee].LaundersPointer && !sum.LaundersPointer {
					sum.LaundersPointer = true
					g.via[fn] = callee
					changed = true
				}
			}
			for _, e := range g.argEdges[fn] {
				cs := g.sums[e.callee]
				if cs == nil || e.toParam >= 32 {
					continue
				}
				if cs.RetainsArgs&(1<<e.toParam) != 0 && sum.RetainsArgs&(1<<e.fromParam) == 0 {
					sum.RetainsArgs |= 1 << e.fromParam
					changed = true
				}
			}
		}
	}
}

// IsBuiltinAppend reports whether the call is the builtin append.
func IsBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// UintptrOfPointer reports whether the call is a uintptr(p) conversion
// of a pointer or unsafe.Pointer — address laundering.
func UintptrOfPointer(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Uintptr {
		return false
	}
	if len(call.Args) != 1 {
		return false
	}
	at, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	switch u := at.Type.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
