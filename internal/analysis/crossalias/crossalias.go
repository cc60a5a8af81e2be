// Package crossalias checks the deep-value contract at shard
// boundaries: anything handed to the cross-shard schedulers
// (Engine.CrossAt, Cluster.AtGlobal/OnBarrier closures, CrossPayload
// words) must not carry a reachable reference to shard-local mutable
// state. The conservative engine only synchronizes shards at barriers;
// a pointer, slice, map, or closure-captured reference that crosses
// lets the destination shard read memory the source shard is still
// mutating — a data race under GOMAXPROCS>1 and a determinism leak
// even without one.
//
// The check is interprocedural where laundering happens: a value built
// by a same-package constructor that retains a reference argument
// (callgraph.Summary.RetainsArgs) is treated as aliasing whatever was
// passed in, even when the captured variable itself looks opaque. The
// clean idioms stay quiet:
//
//   - deep-value captures (analysis.DeepValue: no reachable pointer,
//     slice, map, chan, func, or interface), which copy;
//   - engine/cluster captures — the crossing mechanism itself;
//   - receiver-only pointer use (the hand-back-to-owner idiom: the
//     closure calls methods on the captured pointer and nothing else,
//     the pattern used to deliver work back to the state's owner);
//   - a fresh clone (append to nil, make, composite literal) captured
//     by a single crossing — cloning per crossing is exactly the
//     repair, so the analyzer must not flag it; the same clone crossed
//     inside a loop is shared by every destination and is flagged.
//
// Everything else carries //qcdoclint:crossalias-ok with an in-line
// justification of why the alias is benign (typically: the target
// shard owns the pointee, or barrier order serializes the accesses).
package crossalias

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"qcdoc/internal/analysis"
	"qcdoc/internal/analysis/callgraph"
)

// Analyzer is the crossalias checker.
var Analyzer = &analysis.Analyzer{
	Name: "crossalias",
	Doc: "values handed to cross-shard schedulers (CrossAt/CrossPayload/AtGlobal) must be " +
		"deep-value: no reachable pointer, slice, map, or closure-captured reference to " +
		"shard-local mutable state, interprocedurally through constructors. " +
		"Waive a crossing with //qcdoclint:crossalias-ok.",
	Run: run,
}

// crossClosureArg maps cross-boundary scheduler names to the index of
// their closure argument: exactly the calls whose closure executes on
// another shard (or on the global sequencer).
var crossClosureArg = map[string]int{
	"CrossAt":   2,
	"AtGlobal":  1,
	"OnBarrier": 0,
}

func run(pass *analysis.Pass) (any, error) {
	// The event package implements the crossing; its internals move
	// items from a mailbox to the destination shard's queue by
	// construction.
	if analysis.PkgIs(pass.Pkg.Path(), "event") {
		return nil, nil
	}
	g := callgraph.Build(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, g, fd)
		}
	}
	return nil, nil
}

// funcFacts are the per-function dataflow facts the crossing checks
// consult: which locals hold fresh clones, which were laundered through
// a retaining constructor, and which hold integers derived from
// pointers.
type funcFacts struct {
	fresh     map[types.Object]bool
	laundered map[types.Object]string // witness: "newHolder (retains &st)"
	ptrWord   map[types.Object]bool
	litOf     map[types.Object]*ast.FuncLit // local func-typed vars bound to a literal
	// freshField records per-field freshness for struct-typed locals:
	// freshField[obj]["Payload"] means obj.Payload was assigned a fresh
	// allocation, so a struct copy crossing a shard no longer aliases
	// the original through that field.
	freshField map[types.Object]map[string]bool
}

func (f *funcFacts) setFreshField(obj types.Object, field string) {
	m := f.freshField[obj]
	if m == nil {
		m = map[string]bool{}
		f.freshField[obj] = m
	}
	m[field] = true
}

func checkFunc(pass *analysis.Pass, g *callgraph.Graph, fd *ast.FuncDecl) {
	facts := gatherFacts(pass, g, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, _, name, ok := analysis.ReceiverOf(pass.TypesInfo, call)
		if !ok || !analysis.PkgIs(pkg, "event") {
			return true
		}
		if idx, ok := crossClosureArg[name]; ok && idx < len(call.Args) {
			checkClosureCrossing(pass, g, fd, facts, call, call.Args[idx], enclosingLoop(fd, call))
		}
		if name == "CrossPayload" {
			checkPayloadCrossing(pass, g, facts, call)
		}
		return true
	})
}

// gatherFacts walks the function's assignments once, flow-insensitively.
func gatherFacts(pass *analysis.Pass, g *callgraph.Graph, fd *ast.FuncDecl) *funcFacts {
	facts := &funcFacts{
		fresh:      map[types.Object]bool{},
		laundered:  map[types.Object]string{},
		ptrWord:    map[types.Object]bool{},
		litOf:      map[types.Object]*ast.FuncLit{},
		freshField: map[types.Object]map[string]bool{},
	}
	info := pass.TypesInfo
	// freshRHS extends isFreshExpr through one local hop: a variable
	// already known fresh transfers freshness on plain assignment
	// (payload := append(nil, ...); pkt.Payload = payload).
	freshRHS := func(e ast.Expr) bool {
		if isFreshExpr(info, e) {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			return facts.fresh[analysis.ObjOf(info, id)]
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				continue
			}
			rhs := as.Rhs[i]
			// Field writes: pkt.Payload = <fresh> severs the alias
			// through that field of the local struct.
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				if xid, ok := sel.X.(*ast.Ident); ok && freshRHS(rhs) {
					if xobj := analysis.ObjOf(info, xid); xobj != nil {
						facts.setFreshField(xobj, sel.Sel.Name)
					}
				}
				continue
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := analysis.ObjOf(info, id)
			if obj == nil {
				continue
			}
			if lit, ok := rhs.(*ast.FuncLit); ok {
				facts.litOf[obj] = lit
				continue
			}
			if cl, ok := rhs.(*ast.CompositeLit); ok {
				if st, ok := obj.Type().Underlying().(*types.Struct); ok {
					markCompositeFields(info, facts, obj, cl, st)
					continue
				}
			}
			if freshRHS(rhs) {
				facts.fresh[obj] = true
				continue
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if laundersAnywhere(info, g, pass, call) {
				facts.ptrWord[obj] = true
				continue
			}
			callee := callgraph.CalleeFunc(info, call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				continue
			}
			sum := g.Summary(callee)
			if sum.LaundersPointer {
				facts.ptrWord[obj] = true
			}
			if sum.RetainsArgs != 0 {
				for k, arg := range call.Args {
					if k >= 32 || sum.RetainsArgs&(1<<uint(k)) == 0 {
						continue
					}
					if ref, refName := referenceArg(info, arg); ref {
						facts.laundered[obj] = fmt.Sprintf("%s (which retains %s)", callee.Name(), refName)
						break
					}
				}
			}
		}
		return true
	})
	return facts
}

// isFreshExpr recognizes expressions that allocate backing store the
// function exclusively owns: append to a nil/empty base, make, and
// composite literals (including their address).
func isFreshExpr(info *types.Info, e ast.Expr) bool {
	switch ee := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if ee.Op == token.AND {
			_, lit := ee.X.(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := ee.Fun.(*ast.Ident); ok {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin && (id.Name == "make" || id.Name == "new") {
				return true
			}
		}
		if callgraph.IsBuiltinAppend(info, ee) && len(ee.Args) > 0 {
			return isNilBase(info, ee.Args[0])
		}
	}
	return false
}

// markCompositeFields records per-field freshness for a struct local
// built from a composite literal: a reference field is fresh when its
// element is a fresh allocation, or absent (the zero value aliases
// nothing). A field initialized from shard-local state stays unfresh.
func markCompositeFields(info *types.Info, facts *funcFacts, obj types.Object, cl *ast.CompositeLit, st *types.Struct) {
	elts := map[string]ast.Expr{}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				elts[key.Name] = kv.Value
			}
			continue
		}
		if i < st.NumFields() {
			elts[st.Field(i).Name()] = elt
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if analysis.DeepValue(f.Type()) {
			continue
		}
		e, present := elts[f.Name()]
		if !present || isFreshExpr(info, e) {
			facts.setFreshField(obj, f.Name())
		}
	}
}

// structEffectivelyFresh reports whether every reference-carrying field
// of the struct local has been re-pointed at a fresh allocation, so a
// by-value copy crossing a shard aliases nothing the source retains.
func structEffectivelyFresh(facts *funcFacts, obj types.Object, st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if analysis.DeepValue(f.Type()) {
			continue
		}
		if !facts.freshField[obj][f.Name()] {
			return false
		}
	}
	return true
}

// isNilBase reports whether the append base is nil, a nil conversion
// ([]byte(nil)), or an empty composite literal — the clone idiom.
func isNilBase(info *types.Info, e ast.Expr) bool {
	switch ee := e.(type) {
	case *ast.Ident:
		return ee.Name == "nil"
	case *ast.CallExpr: // []byte(nil)
		if tv, ok := info.Types[ee.Fun]; ok && tv.IsType() && len(ee.Args) == 1 {
			return isNilBase(info, ee.Args[0])
		}
	case *ast.CompositeLit:
		return len(ee.Elts) == 0
	}
	return false
}

// laundersAnywhere reports whether the expression contains a
// pointer-to-uintptr conversion or a call to a same-package function
// that performs one — covering wrapped forms like
// uint64(uintptr(unsafe.Pointer(p))).
func laundersAnywhere(info *types.Info, g *callgraph.Graph, pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callgraph.UintptrOfPointer(info, call) {
			found = true
			return false
		}
		if callee := callgraph.CalleeFunc(info, call); callee != nil && callee.Pkg() == pass.Pkg {
			if g.Summary(callee).LaundersPointer {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// referenceArg reports whether the argument roots at a reference to
// local state: &x, or a variable of pointer/slice/map/reference type.
func referenceArg(info *types.Info, arg ast.Expr) (bool, string) {
	if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		return true, types.ExprString(arg)
	}
	if id := analysis.RootIdent(arg); id != nil {
		if obj := analysis.ObjOf(info, id); obj != nil && !analysis.DeepValue(obj.Type()) {
			return true, types.ExprString(arg)
		}
	}
	return false, ""
}

// enclosingLoop returns the innermost for/range statement containing
// the call, or nil — a crossing inside a loop executes once per
// iteration, so a clone hoisted out of it is shared by every crossing.
func enclosingLoop(fd *ast.FuncDecl, call *ast.CallExpr) ast.Node {
	var loop ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= call.Pos() && call.End() <= n.End() {
				loop = n // keep descending: the innermost match wins
			}
		}
		return true
	})
	return loop
}

// checkClosureCrossing enforces the deep-value contract on one closure
// handed across a shard boundary.
func checkClosureCrossing(pass *analysis.Pass, g *callgraph.Graph, fd *ast.FuncDecl, facts *funcFacts, call *ast.CallExpr, fnArg ast.Expr, loop ast.Node) {
	lit, _ := fnArg.(*ast.FuncLit)
	if lit == nil {
		if id, ok := fnArg.(*ast.Ident); ok {
			lit = facts.litOf[analysis.ObjOf(pass.TypesInfo, id)]
		}
	}
	if lit == nil {
		return // a named function value captures nothing local
	}
	report := func(pos token.Pos, format string, args ...any) {
		if pass.SuppressedAt(analysis.MarkerCrossAliasOK, pos, call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(), format, args...)
	}
	info := pass.TypesInfo
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := analysis.ObjOf(info, id)
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || seen[obj] {
			return true
		}
		// A capture is a variable declared in the enclosing function but
		// outside the literal; package-level state is left to the -race legs.
		if declaredWithin(obj, lit) || !declaredWithin(obj, fd) {
			return true
		}
		seen[obj] = true

		if whence, ok := facts.laundered[obj]; ok {
			report(id.Pos(),
				"cross-shard closure captures %s, built by %s — the constructor smuggles a shard-local reference across the boundary; build it from deep values or mark //qcdoclint:crossalias-ok",
				id.Name, whence)
			return true
		}
		t := obj.Type()
		if isEventMech(t) || analysis.DeepValue(t) {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			if receiverOnly(info, lit, obj) {
				return true // hand-back-to-owner: only methods on the pointee run over there
			}
			report(id.Pos(),
				"cross-shard closure captures %s (%s), a pointer into this shard's heap; the destination shard would alias shard-local state — send a deep-value copy or mark //qcdoclint:crossalias-ok",
				id.Name, t)
		case *types.Slice:
			if facts.fresh[obj] {
				if loop == nil || declaredWithin(obj, loop) {
					return true // one clone, one crossing (or a clone per iteration)
				}
				report(id.Pos(),
					"cross-shard closure captures %s: one clone is shared by every crossing in this loop; clone inside the loop or mark //qcdoclint:crossalias-ok",
					id.Name)
				return true
			}
			report(id.Pos(),
				"cross-shard closure captures slice %s, aliasing this shard's backing store; clone it per crossing (append to nil) or mark //qcdoclint:crossalias-ok",
				id.Name)
		case *types.Map, *types.Chan, *types.Signature, *types.Interface:
			report(id.Pos(),
				"cross-shard closure captures %s (%s); reference values cannot cross shards — send a deep-value copy or mark //qcdoclint:crossalias-ok",
				id.Name, t)
		case *types.Struct:
			if structEffectivelyFresh(facts, obj, u) {
				if loop == nil || declaredWithin(obj, loop) {
					return true // every reference field re-pointed at a clone
				}
				report(id.Pos(),
					"cross-shard closure captures %s: one clone is shared by every crossing in this loop; clone inside the loop or mark //qcdoclint:crossalias-ok",
					id.Name)
				return true
			}
			report(id.Pos(),
				"cross-shard closure captures %s, whose type %s contains reference fields; the copy still aliases shard-local state — make the type deep-value or mark //qcdoclint:crossalias-ok",
				id.Name, t)
		default:
			_ = u
			report(id.Pos(),
				"cross-shard closure captures %s (%s), which is not deep-value; send a copy free of references or mark //qcdoclint:crossalias-ok",
				id.Name, t)
		}
		return true
	})
}

// checkPayloadCrossing flags CrossPayload words derived from pointers:
// a by-value [4]uint64 crosses safely, but an address packed into the
// arg or a payload word re-aliases the source shard when the handler's
// AcceptPayload (at the barrier) or HandleEvent (on the destination
// shard) unpacks it.
func checkPayloadCrossing(pass *analysis.Pass, g *callgraph.Graph, facts *funcFacts, call *ast.CallExpr) {
	info := pass.TypesInfo
	if len(call.Args) < 4 {
		return
	}
	for _, arg := range call.Args[3:] {
		bad := ""
		ast.Inspect(arg, func(n ast.Node) bool {
			if bad != "" {
				return false
			}
			switch nn := n.(type) {
			case *ast.Ident:
				if facts.ptrWord[analysis.ObjOf(info, nn)] {
					bad = nn.Name
				}
			case *ast.CallExpr:
				if callgraph.UintptrOfPointer(info, nn) {
					bad = types.ExprString(nn)
					return false
				}
				if callee := callgraph.CalleeFunc(info, nn); callee != nil && callee.Pkg() == pass.Pkg {
					if g.Summary(callee).LaundersPointer {
						bad = callee.Name() + " (" + g.Why(callee) + ")"
						return false
					}
				}
			}
			return true
		})
		if bad == "" {
			continue
		}
		if pass.Suppressed(analysis.MarkerCrossAliasOK, call.Pos()) {
			continue
		}
		pass.Reportf(call.Pos(),
			"cross-shard payload word derives from a pointer (%s); an address smuggled by value still aliases this shard's heap — send an index or handle instead, or mark //qcdoclint:crossalias-ok",
			bad)
	}
}

// receiverOnly reports whether every use of obj inside the literal is
// as the receiver of a method call — the closure hands the pointer back
// to code that owns it and never dereferences it itself.
func receiverOnly(info *types.Info, lit *ast.FuncLit, obj types.Object) bool {
	allowed := map[*ast.Ident]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && analysis.ObjOf(info, id) == obj {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				allowed[id] = true
			}
		}
		return true
	})
	only := true
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if !only {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && analysis.ObjOf(info, id) == obj && !allowed[id] {
			only = false
		}
		return true
	})
	return only
}

// isEventMech reports whether the type belongs to the event package —
// engines, clusters, schedulers: the crossing mechanism itself, which
// every cross-site necessarily touches.
func isEventMech(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return analysis.PkgIs(named.Obj().Pkg().Path(), "event")
	}
	if p, ok := t.(*types.Pointer); ok {
		return isEventMech(p.Elem())
	}
	return false
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}
