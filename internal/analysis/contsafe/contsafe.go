// Package contsafe keeps blocking coroutine calls off the
// continuation tier.
//
// The event engine has two process tiers (DESIGN.md §8): coroutine
// processes (Spawn/Proc) that may block — Proc.Sleep, Gate.Wait,
// Queue.Get all yield the goroutine's control token — and
// zero-goroutine continuation callbacks (Engine.At/After, Timer and
// Handler dispatch) that run to completion inside
// the engine's dispatch loop. A continuation callback that calls a
// blocking API has no token to yield: it either panics on the engine
// goroutine or deadlocks the whole simulated machine. The type system
// cannot see the difference — both tiers are plain funcs — so contsafe
// tracks it statically: every function that reaches the continuation
// tier (a literal or named function passed to Engine.At/After or
// Engine.NewTimer, or a HandleEvent method
// implementing event.Handler, plus everything those call within the
// package) must not call a blocking API or accept the coroutine token
// (*event.Proc) as an argument value.
package contsafe

import (
	"go/ast"
	"go/types"

	"qcdoc/internal/analysis"
)

// Analyzer is the contsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "contsafe",
	Doc: "forbid blocking coroutine APIs (Proc.Sleep, Gate.Wait, Queue.Get, Engine.Run) " +
		"inside continuation-tier callbacks registered via Engine.At/After, " +
		"Engine.NewTimer, or Handler.HandleEvent; " +
		"waive a call with //qcdoclint:blocking-ok.",
	Run: run,
}

// registrars are event-package methods whose func-typed argument (at
// the given index) runs on the continuation tier.
var registrars = map[string]int{
	"At":       1, // Engine.At(t, fn)
	"After":    1, // Engine.After(d, fn)
	"NewTimer": 0, // Engine.NewTimer(fn)
}

// blocking are the coroutine APIs that yield the control token:
// receiver type name -> method names.
var blocking = map[string]map[string]bool{
	"Proc":   {"Sleep": true},
	"Gate":   {"Wait": true, "WaitUntil": true},
	"Queue":  {"Get": true, "GetTimeout": true},
	"Engine": {"Run": true, "RunAll": true},
}

func run(pass *analysis.Pass) (any, error) {
	// The event package itself implements the tier boundary: its
	// wake/activate plumbing is the mechanism, not a client of it.
	if analysis.PkgIs(pass.Pkg.Path(), "event") {
		return nil, nil
	}

	// Named functions and methods declared in this package, by object.
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

	// Seed the continuation-context set: callback literals passed to
	// registrars, named functions passed likewise, and HandleEvent
	// methods (event.Handler implementations).
	type ctxBody struct {
		body *ast.BlockStmt
		via  string // how this code reaches the continuation tier
	}
	var work []ctxBody
	inCtx := map[*types.Func]string{}

	addCallback := func(arg ast.Expr, via string) {
		switch a := arg.(type) {
		case *ast.FuncLit:
			work = append(work, ctxBody{body: a.Body, via: via})
		case *ast.Ident, *ast.SelectorExpr:
			var obj types.Object
			if id, ok := a.(*ast.Ident); ok {
				obj = analysis.ObjOf(pass.TypesInfo, id)
			} else if sel, ok := a.(*ast.SelectorExpr); ok {
				if s, found := pass.TypesInfo.Selections[sel]; found {
					obj = s.Obj()
				} else {
					obj = analysis.ObjOf(pass.TypesInfo, sel.Sel)
				}
			}
			if fn, ok := obj.(*types.Func); ok {
				if _, seen := inCtx[fn]; !seen {
					inCtx[fn] = via
				}
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "HandleEvent" && fd.Recv != nil && isHandlerSig(pass, fd) {
				work = append(work, ctxBody{body: fd.Body, via: "event.Handler dispatch"})
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
				idx, isReg := registrars[name]
				if !isReg || idx >= len(call.Args) {
					return true
				}
				if recv != "Engine" {
					return true
				}
				addCallback(call.Args[idx], recv+"."+name)
				return true
			})
		}
	}

	// Propagate: code called (statically, within this package) from a
	// continuation context is itself continuation context.
	checked := map[*ast.BlockStmt]bool{}
	var scan func(body *ast.BlockStmt, via string)
	scan = func(body *ast.BlockStmt, via string) {
		if checked[body] {
			return
		}
		checked[body] = true
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			reportBlocking(pass, call, via)
			// Follow same-package static calls.
			if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() == pass.Pkg {
				if fd, ok := decls[fn]; ok {
					scan(fd.Body, via+" -> "+fn.Name())
				}
			}
			return true
		})
	}
	for _, cb := range work {
		scan(cb.body, cb.via)
	}
	for fn, via := range inCtx {
		if fd, ok := decls[fn]; ok {
			scan(fd.Body, via+" -> "+fn.Name())
		}
	}
	return nil, nil
}

// reportBlocking flags one call if it blocks: a known blocking method
// on an event-package type, or any call passing a *event.Proc value
// (the coroutine control token) onward.
func reportBlocking(pass *analysis.Pass, call *ast.CallExpr, via string) {
	pkg, recv, name, ok := analysis.ReceiverOf(pass.TypesInfo, call)
	if ok && analysis.PkgIs(pkg, "event") && blocking[recv][name] {
		if !pass.Suppressed(analysis.MarkerBlockingOK, call.Pos()) {
			pass.Reportf(call.Pos(),
				"continuation-tier callback (via %s) calls blocking %s.%s; it has no coroutine token to yield and would deadlock the engine — restructure as Engine.After or a StateMachine, or mark //qcdoclint:blocking-ok",
				via, recv, name)
		}
		return
	}
	for _, arg := range call.Args {
		tv, found := pass.TypesInfo.Types[arg]
		if !found || tv.Type == nil {
			continue
		}
		ptr, isPtr := tv.Type.(*types.Pointer)
		if !isPtr {
			continue
		}
		named, isNamed := ptr.Elem().(*types.Named)
		if !isNamed || named.Obj().Name() != "Proc" || named.Obj().Pkg() == nil ||
			!analysis.PkgIs(named.Obj().Pkg().Path(), "event") {
			continue
		}
		if !pass.Suppressed(analysis.MarkerBlockingOK, call.Pos()) {
			pass.Reportf(call.Pos(),
				"continuation-tier callback (via %s) passes the coroutine token *event.Proc into a call; blocking APIs behind it would deadlock the engine — mark //qcdoclint:blocking-ok if the callee never blocks",
				via)
		}
		return
	}
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

// isHandlerSig reports whether a HandleEvent method has the
// event.Handler shape: func (T) HandleEvent(uint64).
func isHandlerSig(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	b, ok := sig.Params().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}
