// Package detflow is the determinism gate: it tracks nondeterminism
// from its sources into order-observable sinks through the package call
// graph, so a source laundered through one helper call does not escape.
//
// Sources come in two shapes. Order sources are regions whose execution
// order the host chooses: the body of a range over a map, and the case
// bodies of a select with more than one clause. Value sources are
// expressions whose result encodes host state: wall-clock reads, the
// process-global math/rand, %p pointer formatting, and pointer-to-
// uintptr conversions. Sinks are the places where order or a value
// becomes observable in the simulation record: event scheduling (the
// engine breaks simultaneous-event ties by scheduling sequence, so
// scheduling in map order reorders the downstream event stream — and
// the cross-shard CrossAt/CrossPayload/AtGlobal carry that order across
// shards), digest hashing, appends to ordered output, and telemetry
// emission.
//
// Flows are followed through calls, not just lexically: a map-range
// body that calls a same-package helper which schedules an
// event is flagged at the range statement, with the callgraph witness
// chain in the message. Value taint likewise flows through assignments
// and into callees that pass the parameter to a sink
// (callgraph.Summary.ParamSinks), and out of callees whose results
// derive from a source (ReturnsNondet).
//
// Repairs recognized: ranging over sorted keys
// (the sorted slice is not a map), collecting then sorting before
// anything observes the order, and floating-point or last-write
// accumulation that stays commutative (integer counters, min/max by
// key). Everything else carries //qcdoclint:detflow-ok with an in-line
// justification.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"qcdoc/internal/analysis"
	"qcdoc/internal/analysis/callgraph"
)

// Analyzer is the detflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "track nondeterminism sources (map order, select order, %p, global rand, " +
		"wall clock) through the call graph into order-observable sinks (event " +
		"scheduling, digest hashing, ordered append, telemetry). Waive a flow with " +
		"//qcdoclint:detflow-ok.",
	Run: run,
}

// sorters recognize the "sorted before observation" repair for
// appended output.
var sorters = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"SortFunc": true, "SortStableFunc": true,
}

func run(pass *analysis.Pass) (any, error) {
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

// region is one order-source context: a map-range body or a select
// case body, anchored where the diagnostic should point.
type region struct {
	pos  token.Pos
	body ast.Node
	kind string // "map iteration over m" / "select case order"
	// rs is set for map ranges (sort-after repair needs the range end).
	rs *ast.RangeStmt
}

func checkFunc(pass *analysis.Pass, g *callgraph.Graph, fd *ast.FuncDecl) {
	var regions []region
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[nn.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			regions = append(regions, region{
				pos:  nn.For,
				body: nn.Body,
				kind: "iteration over map " + types.ExprString(nn.X),
				rs:   nn,
			})
		case *ast.SelectStmt:
			if len(nn.Body.List) < 2 {
				return true
			}
			for _, cl := range nn.Body.List {
				cc := cl.(*ast.CommClause)
				// Real brace positions matter: declaredWithin compares
				// against the block's span, and a zero Lbrace would
				// swallow every declaration in the file.
				regions = append(regions, region{
					pos:  nn.Select,
					body: &ast.BlockStmt{Lbrace: cc.Colon, List: cc.Body, Rbrace: cc.End() - 1},
					kind: "select case order",
				})
			}
		}
		return true
	})
	taint := newTaintState(pass, g, fd)
	for _, r := range regions {
		scanRegion(pass, g, fd, r, taint)
	}
	taint.reportValueFlows()
}

// scanRegion reports every order-observable effect inside one order
// context, looking through same-package calls via the callgraph
// summaries.
func scanRegion(pass *analysis.Pass, g *callgraph.Graph, fd *ast.FuncDecl, r region, ts *taintState) {
	report := func(pos token.Pos, format string, args ...any) {
		if pass.SuppressedAt(analysis.MarkerDetflowOK, pos, r.pos) {
			return
		}
		pass.Reportf(r.pos, format, args...)
	}
	ast.Inspect(r.body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			// A literal scheduled or stored here runs later, in heap
			// order; the scheduling call itself is the order sink.
			return false
		case *ast.AssignStmt:
			for i, rhs := range nn.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !callgraph.IsBuiltinAppend(pass.TypesInfo, call) {
					continue
				}
				var target types.Object
				if i < len(nn.Lhs) {
					if id := analysis.RootIdent(nn.Lhs[i]); id != nil {
						target = analysis.ObjOf(pass.TypesInfo, id)
					}
				}
				if target != nil && declaredWithin(target, r.body) {
					continue
				}
				if target != nil && r.rs != nil && sortedAfter(pass, fd, r.rs, target) {
					continue
				}
				report(nn.Pos(),
					"%s is unordered but the body appends to ordered output (%s); range over sorted keys, sort the result before use, or mark //qcdoclint:detflow-ok",
					r.kind, types.ExprString(nn.Lhs[i]))
			}
			// Order leaking into values: a write to a variable that
			// outlives the region is last-iteration-wins, and compound
			// floating-point accumulation is order-dependent.
			ts.seedRegionAssign(nn, r)
		case *ast.CallExpr:
			if name, ok := callgraph.IsSchedulerCall(pass.TypesInfo, nn); ok {
				report(nn.Pos(),
					"%s is unordered but the body schedules events (%s); simultaneous-event ties follow scheduling order, so range over sorted keys or mark //qcdoclint:detflow-ok",
					r.kind, name)
			}
			if callgraph.IsTelemetryEmit(pass.TypesInfo, nn) {
				report(nn.Pos(),
					"%s is unordered but the body feeds a telemetry snapshot; emit in sorted key order or mark //qcdoclint:detflow-ok",
					r.kind)
			}
			if callgraph.IsDigestWrite(pass.TypesInfo, nn) {
				report(nn.Pos(),
					"%s is unordered but the body writes a digest; hash in sorted key order or mark //qcdoclint:detflow-ok",
					r.kind)
			}
			if callee := callgraph.CalleeFunc(pass.TypesInfo, nn); callee != nil && callee.Pkg() == pass.Pkg {
				if flags := callgraph.SinkFlags(g.Summary(callee).Flags); flags != 0 {
					first := flags & -flags
					report(nn.Pos(),
						"%s is unordered but the body calls %s, which %v (%s); range over sorted keys or mark //qcdoclint:detflow-ok",
						r.kind, callee.Name(), flags, g.Why(callee, first))
				}
			}
		}
		return true
	})
}

// declaredWithin reports whether obj's declaration lies inside node —
// an append target local to the region cannot leak its order.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// sortedAfter reports whether, later in the same function, the slice
// object accumulated inside the range is passed to a sort call — the
// collect-then-sort idiom that makes the map order unobservable.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		pkg, _, name, ok := analysis.ReceiverOf(pass.TypesInfo, call)
		if !ok || !sorters[name] || !(pkg == "sort" || pkg == "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id := analysis.RootIdent(arg); id != nil && analysis.ObjOf(pass.TypesInfo, id) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// taintState is the per-function value-taint pass: which local objects
// hold host-nondeterministic values, and where they flow into sinks.
type taintState struct {
	pass *analysis.Pass
	g    *callgraph.Graph
	fd   *ast.FuncDecl
	// tainted maps each tainted object to a short description of its
	// source ("time.Now", "map iteration order", ...).
	tainted map[types.Object]string
}

func newTaintState(pass *analysis.Pass, g *callgraph.Graph, fd *ast.FuncDecl) *taintState {
	return &taintState{pass: pass, g: g, fd: fd, tainted: map[types.Object]string{}}
}

// seedRegionAssign taints variables that carry a map/select region's
// order out in value form: plain assignment of region-dependent data to
// a variable that outlives the region (last iteration wins), and
// compound floating-point accumulation (non-associative, so the sum
// depends on iteration order). Integer counters and boolean flags are
// commutative and stay clean.
func (ts *taintState) seedRegionAssign(as *ast.AssignStmt, r region) {
	if r.rs == nil {
		return
	}
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{r.rs.Key, r.rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if o := analysis.ObjOf(ts.pass.TypesInfo, id); o != nil {
				loopVars[o] = true
			}
		}
	}
	mentionsLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[analysis.ObjOf(ts.pass.TypesInfo, id)] {
				found = true
			}
			return !found
		})
		return found
	}
	for i, lhs := range as.Lhs {
		id := analysis.RootIdent(lhs)
		if id == nil {
			continue
		}
		obj := analysis.ObjOf(ts.pass.TypesInfo, id)
		if obj == nil || declaredWithin(obj, r.body) {
			continue
		}
		switch as.Tok {
		case token.ASSIGN:
			// Only a whole-variable overwrite is last-write-wins; keyed
			// writes (m2[k] = v) land per-key regardless of order, and
			// appends are owned by the ordered-append rule with its
			// sort-after repair.
			if _, plain := lhs.(*ast.Ident); !plain || i >= len(as.Rhs) {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && callgraph.IsBuiltinAppend(ts.pass.TypesInfo, call) {
				continue
			}
			if mentionsLoopVar(as.Rhs[i]) {
				ts.taint(obj, "map iteration order (last write wins)")
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
				ts.taint(obj, "map-ordered floating-point accumulation")
			}
		}
	}
}

func (ts *taintState) taint(obj types.Object, why string) {
	if _, seen := ts.tainted[obj]; !seen {
		ts.tainted[obj] = why
	}
}

// reportValueFlows runs the intraprocedural value-taint fixpoint and
// reports tainted values reaching sinks. Assignment edges are collected
// flow-insensitively (the function is small by construction: the
// interesting flows are a handful of statements apart).
func (ts *taintState) reportValueFlows() {
	info := ts.pass.TypesInfo

	// exprTaint returns a source description if the expression's value
	// derives from a nondeterminism source under the current taint set.
	var exprTaint func(e ast.Expr) (string, bool)
	exprTaint = func(e ast.Expr) (string, bool) {
		why := ""
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch nn := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.Ident:
				if w, ok := ts.tainted[analysis.ObjOf(info, nn)]; ok {
					why, found = w, true
				}
			case *ast.CallExpr:
				if w, ok := callgraph.ValueSourceCall(info, nn); ok {
					why, found = w, true
					return false
				}
				if callgraph.UintptrOfPointer(info, nn) {
					why, found = "pointer-to-uintptr conversion", true
					return false
				}
				if callee := callgraph.CalleeFunc(info, nn); callee != nil && callee.Pkg() == ts.pass.Pkg {
					if ts.g.Summary(callee).Flags&callgraph.ReturnsNondet != 0 {
						why, found = ts.g.Why(callee, callgraph.ReturnsNondet), true
						return false
					}
				}
			}
			return true
		})
		return why, found
	}

	// Propagate taint through assignments until stable.
	for changed := true; changed; {
		changed = false
		ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id := analysis.RootIdent(lhs)
				if id == nil {
					continue
				}
				obj := analysis.ObjOf(info, id)
				if obj == nil {
					continue
				}
				if _, already := ts.tainted[obj]; already {
					continue
				}
				rhs := ast.Expr(nil)
				if i < len(as.Rhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				if why, tainted := exprTaint(rhs); tainted {
					ts.tainted[obj] = why
					changed = true
				}
			}
			return true
		})
	}

	// Report tainted values reaching sinks.
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sinkName := ""
		var sinkMask uint32 // param mask for callee sinks; ^0 for intrinsic sinks
		if name, ok := callgraph.IsSchedulerCall(info, call); ok {
			sinkName, sinkMask = "event scheduling ("+name+")", ^uint32(0)
		} else if callgraph.IsTelemetryEmit(info, call) {
			sinkName, sinkMask = "a telemetry snapshot", ^uint32(0)
		} else if callgraph.IsDigestWrite(info, call) {
			sinkName, sinkMask = "a digest", ^uint32(0)
		} else if callee := callgraph.CalleeFunc(info, call); callee != nil && callee.Pkg() == ts.pass.Pkg {
			if ps := ts.g.Summary(callee).ParamSinks; ps != 0 {
				sinkName, sinkMask = callee.Name()+" (which passes it to a sink)", ps
			}
		}
		if sinkName == "" {
			return true
		}
		for k, arg := range call.Args {
			if k < 32 && sinkMask&(1<<uint(k)) == 0 {
				continue
			}
			if why, tainted := exprTaint(arg); tainted {
				if !ts.pass.Suppressed(analysis.MarkerDetflowOK, call.Pos()) {
					ts.pass.Reportf(call.Pos(),
						"value derived from %s reaches %s; the simulation record must not observe host state — derive it from the engine clock/seeded rng or mark //qcdoclint:detflow-ok",
						why, sinkName)
				}
				return true
			}
		}
		return true
	})
}
