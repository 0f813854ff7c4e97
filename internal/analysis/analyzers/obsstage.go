package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"sort"

	"numarck/internal/analysis"
)

// Obsstage keeps the instrumentation layer's identifier space closed
// and its timers leak-free:
//
//   - every obs.Stage, obs.Counter and obs.Gauge value used outside the
//     obs package must be one of the registry constants the package
//     declares — no local conversions (obs.Stage(7)), no locally
//     declared constants, no raw literals slipping through untyped
//     conversion. Snapshot names stay a closed set the dashboards and
//     bench tooling can rely on;
//   - a Timer obtained from Recorder.Start must be stopped on every
//     return path: a discarded Start, a timer with no Stop, or a return
//     statement between Start and the first Stop all lose the
//     measurement silently (use defer, or stop before returning).
type Obsstage struct{}

// Name implements analysis.Analyzer.
func (Obsstage) Name() string { return "obsstage" }

// Doc implements analysis.Analyzer.
func (Obsstage) Doc() string {
	return "flags obs stage/counter/gauge values from outside the registry and timers not stopped on all return paths"
}

// obsTypeNames are the registry value types.
var obsTypeNames = map[string]bool{"Stage": true, "Counter": true, "Gauge": true}

// isObsRegistryType reports whether t (pointers unwrapped) is one of
// the obs package's registry types, returning its name.
func isObsRegistryType(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "obs" || !obsTypeNames[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

// isObsNamed reports whether t is the named obs type with that name
// (Recorder, Timer).
func isObsNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "obs" && obj.Name() == name
}

// isObsPackage reports whether the pass IS the registry package, which
// is exempt from its own rules (it declares the constants and iterates
// the value space in Snapshot).
func isObsPackage(p *analysis.Pass) bool {
	return p.Pkg != nil && p.Pkg.Name() == "obs" && p.Pkg.Scope().Lookup("Stage") != nil
}

// Run implements analysis.Analyzer.
func (Obsstage) Run(p *analysis.Pass) []analysis.Diagnostic {
	if isObsPackage(p) {
		return nil
	}
	var diags []analysis.Diagnostic
	for _, f := range p.Files {
		diags = append(diags, checkRegistryValues(p, f)...)
	}
	for _, fd := range funcsOf(p) {
		if fd.decl.Body != nil {
			diags = append(diags, checkTimers(p, fd)...)
		}
	}
	return diags
}

// checkRegistryValues flags conversions to the registry types, local
// constant/variable declarations of them, and non-registry arguments in
// registry-typed parameter positions.
func checkRegistryValues(p *analysis.Pass, f *ast.File) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[v.Fun]; ok && tv.IsType() {
				if name, ok := isObsRegistryType(tv.Type); ok {
					diags = append(diags, p.Diagf("obsstage", v.Pos(),
						"conversion to obs.%s bypasses the registry; use the named obs constants", name))
				}
				return true
			}
			diags = append(diags, checkRegistryArgs(p, v)...)
		case *ast.ValueSpec:
			if v.Type == nil {
				return true
			}
			if t := p.Info.TypeOf(v.Type); t != nil {
				if name, ok := isObsRegistryType(t); ok {
					diags = append(diags, p.Diagf("obsstage", v.Pos(),
						"local declaration of obs.%s values; stage/counter/gauge names live in the obs registry only", name))
				}
			}
		}
		return true
	})
	return diags
}

// checkRegistryArgs validates arguments bound to registry-typed
// parameters: each must be a registry constant or a value of the type
// already in flight (a parameter being forwarded). Untyped literals —
// which convert silently — and constants declared outside obs are
// flagged. Conversions are the conversion check's job and calls
// returning the type are trusted.
func checkRegistryArgs(p *analysis.Pass, call *ast.CallExpr) []analysis.Diagnostic {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var diags []analysis.Diagnostic
	for i, arg := range call.Args {
		if i >= sig.Params().Len() { // variadic tail: not a registry shape
			break
		}
		name, ok := isObsRegistryType(sig.Params().At(i).Type())
		if !ok {
			continue
		}
		switch a := ast.Unparen(arg).(type) {
		case *ast.CallExpr:
			continue // conversions flagged separately; real calls trusted
		case *ast.Ident, *ast.SelectorExpr:
			var obj types.Object
			if id, isIdent := a.(*ast.Ident); isIdent {
				obj = objectOf(p.Info, id)
			} else {
				obj = objectOf(p.Info, a.(*ast.SelectorExpr).Sel)
			}
			if c, isConst := obj.(*types.Const); isConst {
				if c.Pkg() == nil || c.Pkg().Name() != "obs" {
					diags = append(diags, p.Diagf("obsstage", arg.Pos(),
						"obs.%s constant declared outside the obs registry", name))
				}
				continue
			}
			continue // a variable of the type: already validated at its source
		default:
			diags = append(diags, p.Diagf("obsstage", arg.Pos(),
				"obs.%s argument is not a registry constant; use the named obs constants", name))
		}
	}
	return diags
}

// timerEvent is one lexical event in a timer variable's life.
type timerEvent struct {
	pos      token.Pos
	kind     int // 0 start, 1 stop
	deferred bool
}

// checkTimers flags discarded Starts, never-stopped timers, and return
// statements between a Start and its first Stop.
func checkTimers(p *analysis.Pass, fd funcDecl) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	isStartCall := func(call *ast.CallExpr) bool {
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Name() != "Start" {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() != nil && isObsNamed(sig.Recv().Type(), "Recorder")
	}

	// Discarded Start: the Timer is unrecoverable.
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := es.X.(*ast.CallExpr); ok && isStartCall(call) {
			diags = append(diags, p.Diagf("obsstage", es.Pos(),
				"result of Recorder.Start is discarded; the timer can never be stopped"))
		}
		return true
	})

	// Per-variable event streams.
	events := map[types.Object][]timerEvent{}
	escaped := map[types.Object]bool{}
	inspectStack(fd.decl.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objectOf(p.Info, id)
		if obj == nil || !isObsNamed(obj.Type(), "Timer") {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		switch timerUse(p, id, stack, isStartCall) {
		case useStart:
			events[obj] = append(events[obj], timerEvent{pos: id.Pos(), kind: 0})
		case useStop:
			deferred := false
			for i := len(stack) - 1; i >= 0; i-- {
				if _, ok := stack[i].(*ast.DeferStmt); ok {
					deferred = true
					break
				}
				if _, ok := stack[i].(*ast.FuncLit); ok {
					break
				}
			}
			events[obj] = append(events[obj], timerEvent{pos: id.Pos(), kind: 1, deferred: deferred})
		case useOther:
			escaped[obj] = true
		}
		return true
	})

	var returns []token.Pos
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, r.Pos())
		}
		return true
	})
	sort.Slice(returns, func(i, j int) bool { return returns[i] < returns[j] })

	objs := make([]types.Object, 0, len(events))
	for obj := range events {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		if escaped[obj] {
			continue // handed to someone else: their responsibility
		}
		evs := events[obj]
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		deferredStop := false
		for _, e := range evs {
			if e.kind == 1 && e.deferred {
				deferredStop = true
			}
		}
		if deferredStop {
			continue // defer covers every return path
		}
		// Each Start opens an interval that the next Start closes;
		// within it there must be a Stop, and no return may precede the
		// first Stop.
		for i, e := range evs {
			if e.kind != 0 {
				continue
			}
			intervalEnd := token.Pos(math.MaxInt)
			for _, later := range evs[i+1:] {
				if later.kind == 0 {
					intervalEnd = later.pos
					break
				}
			}
			var firstStop token.Pos
			for _, later := range evs[i+1:] {
				if later.pos >= intervalEnd {
					break
				}
				if later.kind == 1 {
					firstStop = later.pos
					break
				}
			}
			if firstStop == token.NoPos {
				diags = append(diags, p.Diagf("obsstage", e.pos,
					"obs timer started here is never stopped; its measurement is lost"))
				continue
			}
			for _, rp := range returns {
				if rp > e.pos && rp < firstStop {
					diags = append(diags, p.Diagf("obsstage", rp,
						"return between Recorder.Start (%s) and Timer.Stop loses the timer on this path; stop before returning or use defer",
						p.Position(e.pos)))
				}
			}
		}
	}
	return diags
}

// Timer identifier use classification.
const (
	useStart = iota
	useStop
	useOther
)

// timerUse classifies one appearance of a timer identifier: the LHS of
// an assignment whose RHS is Recorder.Start (a start), the receiver of
// a .Stop call (a stop), or anything else (an escape).
func timerUse(p *analysis.Pass, id *ast.Ident, stack []ast.Node, isStartCall func(*ast.CallExpr) bool) int {
	if len(stack) == 0 {
		return useOther
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == ast.Expr(id) {
				if len(parent.Rhs) == 1 {
					if call, ok := ast.Unparen(parent.Rhs[0]).(*ast.CallExpr); ok && isStartCall(call) {
						return useStart
					}
				}
				return useOther // reassigned from something else
			}
		}
		return useOther
	case *ast.SelectorExpr:
		if parent.X == ast.Expr(id) && parent.Sel.Name == "Stop" {
			if len(stack) >= 2 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(parent) {
					return useStop
				}
			}
		}
		return useOther
	}
	return useOther
}
