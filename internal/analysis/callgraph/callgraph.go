// Package callgraph gives the analysis suite whole-package reasoning:
// a conservative static call graph over one type-checked package plus
// per-function summaries computed by fixpoint propagation.
//
// A lexical checker misses a nondeterminism source laundered through one
// helper call — a map-range body that calls a function which schedules
// an event, a cross-shard closure that captures a pointer via a
// constructor. This package closes that hole for the two analyzers
// (detflow, crossalias): it records, for every function declared in the
// package, whether the function directly or transitively
//
//   - schedules simulated activity (Schedules),
//   - mutates telemetry (EmitsTelemetry),
//   - feeds a hash/digest (WritesDigest),
//   - appends to order-observable non-local output (OrderedAppend),
//   - returns a value derived from a nondeterminism source
//     (ReturnsNondet),
//   - converts a pointer into an integer (LaundersPointer),
//
// plus two per-parameter bitmasks: which parameters the function
// retains beyond the call (RetainsArgs — stored into a field, a global,
// a returned composite, or a non-invoked closure) and which parameters
// reach an order-observable sink (ParamSinks).
//
// Conservatism runs the same direction as the rest of the suite:
// resolution is static and same-package (cross-package callees are
// matched against the known event/telemetry/hash intrinsics and
// otherwise assumed effect-free), and func literals are folded into
// their enclosing function only when immediately invoked — a literal
// handed to a registrar executes in that registrar's context, which the
// context-sensitive analyzers judge at the registration site instead.
// The fixpoint is a monotone ascent over finite bitsets, so it
// terminates on any call graph, mutual recursion included
// (TestFixpointTerminatesOnMutualRecursion).
package callgraph

import (
	"go/ast"
	"go/types"

	"qcdoc/internal/analysis"
)

// Flags are the transitive effect bits of one function summary.
type Flags uint32

const (
	// Schedules: the function enqueues simulated activity (an event-
	// package scheduler: At/After/Spawn/Put/Arm/..., or the cross-shard
	// CrossAt/CrossPayload/AtGlobal).
	Schedules Flags = 1 << iota
	// EmitsTelemetry: the function writes a telemetry row (EmitFunc /
	// HistEmitFunc call, Histogram.Record, counter Add/Set).
	EmitsTelemetry
	// WritesDigest: the function feeds a hash (stdlib hash packages or
	// an in-repo digest accumulator).
	WritesDigest
	// OrderedAppend: the function appends to a slice that outlives it
	// (a field, a package-level var, a dereferenced pointer) — output
	// whose order readers can observe.
	OrderedAppend
	// ReturnsNondet: the function's return value derives from a
	// nondeterminism source (wall clock, global rand, pointer
	// formatting) directly or through a same-package callee.
	ReturnsNondet
	// LaundersPointer: the function converts a pointer to an integer
	// (uintptr/unsafe), the primitive that smuggles an address through
	// a by-value payload.
	LaundersPointer
)

// sinkFlags are the bits that make a function an order-observable sink
// when called from a nondeterministically-ordered context.
const sinkFlags = Schedules | EmitsTelemetry | WritesDigest | OrderedAppend

// SinkFlags returns the subset of f that denotes order-observable
// sinks.
func SinkFlags(f Flags) Flags { return f & sinkFlags }

// String names the set bits, for diagnostics.
func (f Flags) String() string {
	names := []struct {
		bit  Flags
		name string
	}{
		{Schedules, "schedules events"},
		{EmitsTelemetry, "emits telemetry"},
		{WritesDigest, "writes a digest"},
		{OrderedAppend, "appends to ordered output"},
		{ReturnsNondet, "returns a nondeterministic value"},
		{LaundersPointer, "launders a pointer"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit == 0 {
			continue
		}
		if s != "" {
			s += ", "
		}
		s += n.name
	}
	return s
}

// Summary is one function's interprocedural facts.
type Summary struct {
	Flags Flags
	// RetainsArgs bit i: parameter i is stored somewhere that outlives
	// the call (receiver/struct field, package var, returned composite
	// literal, non-invoked closure, or a retaining position of a
	// same-package callee).
	RetainsArgs uint32
	// ParamSinks bit i: parameter i is passed to an order-observable
	// sink (scheduler, telemetry emit, digest write), directly or
	// through a same-package callee.
	ParamSinks uint32
}

// Graph is the call graph and summary table of one package.
type Graph struct {
	Pkg   *types.Package
	Decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*Summary
	// calls: same-package static call edges, for flag propagation.
	calls map[*types.Func][]*types.Func
	// retCalls: same-package callees whose result appears in a return
	// expression, for ReturnsNondet/LaundersPointer propagation.
	retCalls map[*types.Func][]*types.Func
	// argEdges: (caller, caller-param i) forwarded to (callee, callee
	// param k) — the lattice edges for RetainsArgs/ParamSinks.
	argEdges map[*types.Func][]argEdge
	// via records, per function and flag, the callee the flag arrived
	// through (nil for direct seeds) so Why can print the chain.
	via    map[*types.Func]map[Flags]*types.Func
	direct map[*types.Func]map[Flags]string
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

// Why returns the call chain that gave fn the flag, rendered like
// "helper -> schedule -> event.At", or "" when the flag is unset. The
// chain is a witness, not an enumeration: one shortest-discovered path.
func (g *Graph) Why(fn *types.Func, flag Flags) string {
	s, ok := g.sums[fn]
	if !ok || s.Flags&flag == 0 {
		return ""
	}
	out := fn.Name()
	for seen := map[*types.Func]bool{}; !seen[fn]; {
		seen[fn] = true
		if next := g.via[fn][flag]; next != nil {
			out += " -> " + next.Name()
			fn = next
			continue
		}
		if d := g.direct[fn][flag]; d != "" {
			out += " -> " + d
		}
		break
	}
	return out
}

// Schedulers are the event-package methods that enqueue or reorder
// simulated activity, including the cross-shard surface. Calling one in
// map-iteration order stamps that order onto event sequence numbers.
var Schedulers = map[string]bool{
	"At": true, "After": true, "AtHandler": true, "AfterHandler": true,
	"Spawn": true, "SpawnDaemon": true,
	"Put": true, "Fire": true,
	"Arm": true, "ArmAt": true, "Goto": true,
	"CrossAt": true, "CrossPayload": true, "AtGlobal": true,
}

// telemetryMutators are method names on telemetry-package receivers
// that write a row or a sample.
var telemetryMutators = map[string]bool{
	"Record": true, "Add": true, "Set": true, "Observe": true,
}

// IsSchedulerCall reports whether the call invokes an event-package
// scheduler, returning its method name.
func IsSchedulerCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	pkg, _, name, ok := analysis.ReceiverOf(info, call)
	if !ok || !Schedulers[name] || !analysis.PkgIs(pkg, "event") {
		return "", false
	}
	return name, true
}

// IsTelemetryEmit reports whether the call writes telemetry: invoking a
// telemetry.EmitFunc / HistEmitFunc value, or a mutating method
// (Record/Add/Set/Observe) on a telemetry-package receiver.
func IsTelemetryEmit(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok {
		if named, ok := tv.Type.(*types.Named); ok && named.Obj().Pkg() != nil {
			name := named.Obj().Name()
			if (name == "EmitFunc" || name == "HistEmitFunc") &&
				analysis.PkgIs(named.Obj().Pkg().Path(), "telemetry") {
				return true
			}
		}
	}
	pkg, _, name, ok := analysis.ReceiverOf(info, call)
	return ok && telemetryMutators[name] && analysis.PkgIs(pkg, "telemetry")
}

// IsDigestWrite reports whether the call feeds a hash: a Write/Sum-ish
// method on a stdlib hash receiver, a hash/crc32-style package
// function, or an in-repo digest accumulator (a method named
// Digest/Fold on a simulator type is deliberately NOT matched — only
// writes into an accumulator are order-observable, finished digests are
// values).
func IsDigestWrite(info *types.Info, call *ast.CallExpr) bool {
	if pkg, _, name, ok := analysis.ReceiverOf(info, call); ok && isHashPath(pkg) && digestMethods[name] {
		return true
	}
	// hash.Hash's Write is inherited from io.Writer, so the method's own
	// package is "io"; judge by the receiver expression's type instead.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !digestMethods[sel.Sel.Name] {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && isHashPath(named.Obj().Pkg().Path())
}

var digestMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"Sum": true, "Sum32": true, "Sum64": true,
	"Update": true, "Checksum": true,
}

func isHashPath(path string) bool {
	switch path {
	case "hash", "hash/fnv", "hash/crc32", "hash/crc64", "hash/adler32", "hash/maphash":
		return true
	}
	return false
}

// Build constructs the call graph and runs the summary fixpoint for the
// pass's package.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		Pkg:      pass.Pkg,
		Decls:    map[*types.Func]*ast.FuncDecl{},
		sums:     map[*types.Func]*Summary{},
		calls:    map[*types.Func][]*types.Func{},
		retCalls: map[*types.Func][]*types.Func{},
		argEdges: map[*types.Func][]argEdge{},
		via:      map[*types.Func]map[Flags]*types.Func{},
		direct:   map[*types.Func]map[Flags]string{},
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

	setDirect := func(flag Flags, why string) {
		if sum.Flags&flag == 0 {
			sum.Flags |= flag
			if g.direct[fn] == nil {
				g.direct[fn] = map[Flags]string{}
			}
			g.direct[fn][flag] = why
		}
	}

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
			if name, ok := IsSchedulerCall(info, nn); ok {
				setDirect(Schedules, "event."+name)
				sum.ParamSinks |= argParamBits(nn, paramRoots)
			}
			if IsTelemetryEmit(info, nn) {
				setDirect(EmitsTelemetry, "telemetry emit")
				sum.ParamSinks |= argParamBits(nn, paramRoots)
			}
			if IsDigestWrite(info, nn) {
				setDirect(WritesDigest, "hash write")
				sum.ParamSinks |= argParamBits(nn, paramRoots)
			}
			if callee := CalleeFunc(info, nn); callee != nil && callee.Pkg() == g.Pkg {
				// Only calls to declared functions get edges: an
				// interface method of this package resolves here too,
				// but has no body and no summary to propagate from.
				if _, known := g.sums[callee]; known && callee != fn {
					g.calls[fn] = append(g.calls[fn], callee)
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
			if uintptrOfPointer(info, nn) {
				setDirect(LaundersPointer, "uintptr conversion")
			}
			if inReturn > 0 {
				if why, ok := valueSourceCall(info, nn); ok {
					setDirect(ReturnsNondet, why)
				}
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
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(info, call) && lhs != nil {
					if nonLocalLValue(lhs) {
						setDirect(OrderedAppend, "append to "+types.ExprString(lhs))
					}
					for _, arg := range call.Args[1:] {
						if nonLocalLValue(lhs) {
							sum.RetainsArgs |= paramRoots(arg)
						}
					}
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

// argParamBits folds paramRoots over a call's arguments.
func argParamBits(call *ast.CallExpr, paramRoots func(ast.Node) uint32) uint32 {
	var bits uint32
	for _, arg := range call.Args {
		bits |= paramRoots(arg)
	}
	return bits
}

// fixpoint propagates summaries along call edges until nothing changes.
// Every step only sets bits in finite bitsets, so the ascent terminates
// on any graph, cycles and mutual recursion included.
func (g *Graph) fixpoint() {
	for changed := true; changed; {
		changed = false
		for fn, sum := range g.sums {
			for _, callee := range g.calls[fn] {
				cs := g.sums[callee]
				add := cs.Flags & sinkFlags &^ sum.Flags
				if add != 0 {
					sum.Flags |= add
					if g.via[fn] == nil {
						g.via[fn] = map[Flags]*types.Func{}
					}
					for bit := Flags(1); bit <= add; bit <<= 1 {
						if add&bit != 0 {
							g.via[fn][bit] = callee
						}
					}
					changed = true
				}
			}
			for _, callee := range g.retCalls[fn] {
				cs := g.sums[callee]
				add := cs.Flags & (ReturnsNondet | LaundersPointer) &^ sum.Flags
				if add != 0 {
					sum.Flags |= add
					if g.via[fn] == nil {
						g.via[fn] = map[Flags]*types.Func{}
					}
					for bit := Flags(1); bit <= add; bit <<= 1 {
						if add&bit != 0 {
							g.via[fn][bit] = callee
						}
					}
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
				if cs.ParamSinks&(1<<e.toParam) != 0 && sum.ParamSinks&(1<<e.fromParam) == 0 {
					sum.ParamSinks |= 1 << e.fromParam
					changed = true
				}
			}
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// uintptrOfPointer reports whether the call is a uintptr(p) conversion
// of a pointer or unsafe.Pointer — address laundering.
func uintptrOfPointer(info *types.Info, call *ast.CallExpr) bool {
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

// wallFuncs are the time-package calls that observe the host clock.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
}

// globalRandOK are the math/rand identifiers that do not touch the
// process-global generator.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Source": true, "Rand": true, "Zipf": true,
}

// valueSourceCall reports whether the call produces a host-
// nondeterministic value: wall clock, global math/rand, or pointer
// formatting (%p).
func valueSourceCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			switch path := pn.Imported().Path(); path {
			case "time":
				if wallFuncs[sel.Sel.Name] {
					return "time." + sel.Sel.Name, true
				}
			case "math/rand", "math/rand/v2":
				if !globalRandOK[sel.Sel.Name] {
					return "rand." + sel.Sel.Name, true
				}
			case "fmt":
				if formatsPointer(info, call) {
					return "fmt." + sel.Sel.Name + "(%p)", true
				}
			}
		}
	}
	return "", false
}

// formatsPointer reports whether a fmt call's format string contains a
// %p verb — the canonical way a heap address leaks into observable
// output.
func formatsPointer(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok || tv.Value == nil {
			continue
		}
		if s := tv.Value.String(); len(s) >= 2 && containsPverb(s) {
			return true
		}
	}
	return false
}

// containsPverb scans a (quoted) constant format string for %p,
// skipping %%.
func containsPverb(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		if s[i+1] == '%' {
			i++
			continue
		}
		// Skip flags/width between % and the verb.
		j := i + 1
		for j < len(s) && (s[j] == '+' || s[j] == '-' || s[j] == '#' || s[j] == ' ' ||
			s[j] == '0' || (s[j] >= '1' && s[j] <= '9') || s[j] == '.') {
			j++
		}
		if j < len(s) && s[j] == 'p' {
			return true
		}
	}
	return false
}

// ValueSourceCall is valueSourceCall exported for detflow's lexical
// source detection.
func ValueSourceCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	return valueSourceCall(info, call)
}

// UintptrOfPointer is uintptrOfPointer exported for crossalias.
func UintptrOfPointer(info *types.Info, call *ast.CallExpr) bool {
	return uintptrOfPointer(info, call)
}

// IsBuiltinAppend is isBuiltinAppend exported for detflow.
func IsBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	return isBuiltinAppend(info, call)
}
