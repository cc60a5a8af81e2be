// Package shardsafe keeps cross-shard state off the per-shard event
// tiers.
//
// Under the conservative parallel engine (DESIGN.md §13) every node,
// wire and management port belongs to exactly one shard, and code
// scheduled on a shard's engine — Engine.At/After closures, Timer
// continuations, Spawned coroutine bodies, HandleEvent dispatch — may
// run concurrently with every other shard's window. Such code must touch only the hardware its own shard
// owns; reaching into the machine-wide collections ([]*node.Node,
// []*hssl.Wire, []*ethjtag.Port) selects an element that is, in
// general, another shard's state, and mutating it there is a data race
// the channel-queue protocol exists to prevent. The sanctioned escape
// hatches are exactly the channel-queue path and the serialized tiers:
// callbacks handed to Engine.CrossAt (run on the owning shard),
// Cluster.AtGlobal (run serially with all shard clocks aligned),
// Cluster.OnBarrier and PayloadHandler.AcceptPayload (both run serially
// between windows) are exempt, as is any line waived with //qcdoclint:shard-ok — the reviewable record
// that an access is rank-local or pre-run by construction.
package shardsafe

import (
	"go/ast"
	"go/types"

	"qcdoc/internal/analysis"
)

// Analyzer is the shardsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "forbid indexing or element-ranging the machine-wide hardware collections " +
		"([]*node.Node, []*hssl.Wire, []*ethjtag.Port) inside shard-context code " +
		"(Engine.At/After/NewTimer/Spawn callbacks, HandleEvent methods); route cross-shard actions through " +
		"CrossAt/CrossPayload/AtGlobal/OnBarrier or waive with //qcdoclint:shard-ok.",
	Run: run,
}

// shardRegs are event-package methods whose func-typed argument (at the
// given index) runs on one shard's engine, concurrently with other
// shards.
var shardRegs = map[string]map[string]int{
	"Engine": {
		"At":          1,
		"After":       1,
		"NewTimer":    0,
		"Spawn":       1,
		"SpawnDaemon": 1,
	},
}

// exemptRegs are the sanctioned cross-shard registrars: their callbacks
// run on the destination shard (CrossAt) or serialized between windows
// (AtGlobal, OnBarrier), so shard-context rules do not apply inside.
var exemptRegs = map[string]map[string]int{
	"Engine":  {"CrossAt": 2},
	"Cluster": {"AtGlobal": 1, "OnBarrier": 0},
}

// sharded lists the machine-wide hardware element types: package tail
// -> type name. A slice of one of these spans shards.
var sharded = map[string]string{
	"node":    "Node",
	"hssl":    "Wire",
	"ethjtag": "Port",
}

func run(pass *analysis.Pass) (any, error) {
	// The event package is the shard mechanism itself, and the wire /
	// management layers (hssl, ethjtag) implement the sanctioned
	// channel-queue delivery path — their handlers hold the wires by
	// construction.
	for _, mech := range []string{"event", "hssl", "ethjtag"} {
		if analysis.PkgIs(pass.Pkg.Path(), mech) {
			return nil, nil
		}
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	// Seed shard contexts (callbacks registered on a shard engine) and
	// the exempt set (callbacks routed through the serialized tiers).
	type ctxBody struct {
		body *ast.BlockStmt
		via  string
	}
	var work []ctxBody
	inCtx := map[*types.Func]string{}
	exemptFns := map[*types.Func]bool{}
	exemptLits := map[*ast.BlockStmt]bool{}

	callbackFunc := func(arg ast.Expr) *types.Func {
		switch a := arg.(type) {
		case *ast.Ident:
			if fn, ok := analysis.ObjOf(pass.TypesInfo, a).(*types.Func); ok {
				return fn
			}
		case *ast.SelectorExpr:
			if s, found := pass.TypesInfo.Selections[a]; found {
				if fn, ok := s.Obj().(*types.Func); ok {
					return fn
				}
			} else if fn, ok := analysis.ObjOf(pass.TypesInfo, a.Sel).(*types.Func); ok {
				return fn
			}
		}
		return nil
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil && isDispatchSig(pass, fd) {
				work = append(work, ctxBody{body: fd.Body, via: fd.Name.Name + " dispatch"})
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkg, recv, name, ok := analysis.ReceiverOf(pass.TypesInfo, call)
				if !ok || !analysis.PkgIs(pkg, "event") {
					return true
				}
				if idx, isEx := exemptRegs[recv][name]; isEx && idx < len(call.Args) {
					if lit, isLit := call.Args[idx].(*ast.FuncLit); isLit {
						exemptLits[lit.Body] = true
					} else if fn := callbackFunc(call.Args[idx]); fn != nil {
						exemptFns[fn] = true
					}
					return true
				}
				idx, isReg := shardRegs[recv][name]
				if !isReg || idx >= len(call.Args) {
					return true
				}
				if lit, isLit := call.Args[idx].(*ast.FuncLit); isLit {
					work = append(work, ctxBody{body: lit.Body, via: recv + "." + name})
				} else if fn := callbackFunc(call.Args[idx]); fn != nil {
					if _, seen := inCtx[fn]; !seen {
						inCtx[fn] = recv + "." + name
					}
				}
				return true
			})
		}
	}

	// Propagate shard context through same-package static calls,
	// reporting violations; exempt bodies terminate the walk.
	checked := map[*ast.BlockStmt]bool{}
	var scan func(body *ast.BlockStmt, via string)
	scan = func(body *ast.BlockStmt, via string) {
		if checked[body] || exemptLits[body] {
			return
		}
		checked[body] = true
		ast.Inspect(body, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.FuncLit:
				// A literal handed to an exempt registrar runs on the
				// serialized tier, not in this shard context.
				if exemptLits[nn.Body] {
					return false
				}
			case *ast.IndexExpr:
				if pkg, name, ok := shardedElem(pass, nn.X); ok {
					if !pass.Suppressed(analysis.MarkerShardOK, nn.Pos()) {
						pass.Reportf(nn.Pos(),
							"shard-context code (via %s) indexes the machine-wide []*%s.%s; per-shard code may touch only its own rank's hardware — route through CrossAt/CrossPayload/AtGlobal/OnBarrier or mark //qcdoclint:shard-ok",
							via, pkg, name)
					}
				}
			case *ast.RangeStmt:
				if nn.Value != nil {
					if pkg, name, ok := shardedElem(pass, nn.X); ok {
						if !pass.Suppressed(analysis.MarkerShardOK, nn.For) {
							pass.Reportf(nn.For,
								"shard-context code (via %s) ranges over the machine-wide []*%s.%s elements; per-shard code may touch only its own rank's hardware — route through CrossAt/CrossPayload/AtGlobal/OnBarrier or mark //qcdoclint:shard-ok",
								via, pkg, name)
						}
					}
				}
			case *ast.CallExpr:
				if pkg, recv, name, ok := analysis.ReceiverOf(pass.TypesInfo, nn); ok && analysis.PkgIs(pkg, "event") {
					if _, isEx := exemptRegs[recv][name]; isEx {
						break
					}
				}
				if fn := calleeFunc(pass, nn); fn != nil && fn.Pkg() == pass.Pkg && !exemptFns[fn] {
					if fd, ok := decls[fn]; ok {
						scan(fd.Body, via+" -> "+fn.Name())
					}
				}
			}
			return true
		})
	}
	for _, cb := range work {
		scan(cb.body, cb.via)
	}
	for fn, via := range inCtx {
		if exemptFns[fn] {
			continue
		}
		if fd, ok := decls[fn]; ok {
			scan(fd.Body, via+" -> "+fn.Name())
		}
	}
	return nil, nil
}

// shardedElem reports whether e is a slice or array whose element type
// is a pointer to one of the machine-wide hardware types, returning the
// owning package tail and type name.
func shardedElem(pass *analysis.Pass, e ast.Expr) (pkg, name string, ok bool) {
	tv, found := pass.TypesInfo.Types[e]
	if !found || tv.Type == nil {
		return "", "", false
	}
	var elem types.Type
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return "", "", false
	}
	ptr, isPtr := elem.(*types.Pointer)
	if !isPtr {
		return "", "", false
	}
	named, isNamed := ptr.Elem().(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	for tail, typ := range sharded {
		if named.Obj().Name() == typ && analysis.PkgIs(named.Obj().Pkg().Path(), tail) {
			return tail, typ, true
		}
	}
	return "", "", false
}

// calleeFunc resolves a call to its static *types.Func target, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := analysis.ObjOf(pass.TypesInfo, fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if s, found := pass.TypesInfo.Selections[fun]; found {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
		} else if fn, ok := analysis.ObjOf(pass.TypesInfo, fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isDispatchSig reports whether a method is engine dispatch surface:
// HandleEvent(uint64). (AcceptPayload is not: it runs at the barrier.)
func isDispatchSig(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok || fd.Name.Name != "HandleEvent" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 0 || sig.Params().Len() != 1 {
		return false
	}
	b, ok := sig.Params().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}
