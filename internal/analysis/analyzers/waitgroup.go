package analyzers

import (
	"go/ast"
	"go/types"

	"numarck/internal/analysis"
)

// Waitgroup flags the two sync.WaitGroup ordering mistakes that would
// corrupt NUMARCK's goroutine-parallel k-means assignment and
// distributed encode paths:
//
//  1. wg.Add called inside the spawned goroutine it accounts for — the
//     classic race where Wait can return before the goroutine is
//     counted;
//  2. wg.Wait appearing before any wg.Add in the same statement block —
//     the Wait is a no-op barrier.
//
// A WaitGroup or lock copied by value is go vet's copylocks check.
type Waitgroup struct{}

// Name implements analysis.Analyzer.
func (Waitgroup) Name() string { return "waitgroup" }

// Doc implements analysis.Analyzer.
func (Waitgroup) Doc() string {
	return "flags wg.Add inside the spawned goroutine and Wait before Add"
}

// Run implements analysis.Analyzer.
func (Waitgroup) Run(p *analysis.Pass) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, f := range p.Files {
		diags = append(diags, addInsideGoroutine(p, f)...)
		diags = append(diags, waitBeforeAdd(p, f)...)
	}
	return diags
}

// wgCall matches a call expression of the form wg.<method>(...) on a
// sync.WaitGroup and returns the receiver's root object.
func wgCall(info *types.Info, call *ast.CallExpr, method string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	t := info.TypeOf(sel.X)
	if t == nil || !isSyncNamed(t, "WaitGroup") {
		return nil
	}
	id := rootIdent(sel.X)
	if id == nil {
		return nil
	}
	return objectOf(info, id)
}

// addInsideGoroutine reports wg.Add calls inside a `go func(){...}()`
// body when wg is declared outside that goroutine.
func addInsideGoroutine(p *analysis.Pass, f *ast.File) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := wgCall(p.Info, call, "Add")
			if obj == nil || declaredWithin(obj, lit) {
				return true
			}
			diags = append(diags, p.Diagf("waitgroup", call.Pos(),
				"%s.Add inside the spawned goroutine races its own Wait; call Add before the go statement", obj.Name()))
			return true
		})
		return true
	})
	return diags
}

// waitBeforeAdd reports wg.Wait statements that lexically precede every
// wg.Add of the same WaitGroup in the same statement block. The check
// is deliberately block-local: across blocks, loop bodies and helper
// calls legitimately reorder the two.
func waitBeforeAdd(p *analysis.Pass, f *ast.File) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		type firstUse struct {
			addIdx  int
			waitIdx int
			wait    *ast.CallExpr
		}
		uses := map[types.Object]*firstUse{}
		for i, stmt := range block.List {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if obj := wgCall(p.Info, call, "Add"); obj != nil {
				u := uses[obj]
				if u == nil {
					u = &firstUse{addIdx: -1, waitIdx: -1}
					uses[obj] = u
				}
				if u.addIdx < 0 {
					u.addIdx = i
				}
			}
			if obj := wgCall(p.Info, call, "Wait"); obj != nil {
				u := uses[obj]
				if u == nil {
					u = &firstUse{addIdx: -1, waitIdx: -1}
					uses[obj] = u
				}
				if u.waitIdx < 0 {
					u.waitIdx = i
					u.wait = call
				}
			}
		}
		for obj, u := range uses {
			if u.waitIdx >= 0 && u.addIdx >= 0 && u.waitIdx < u.addIdx {
				diags = append(diags, p.Diagf("waitgroup", u.wait.Pos(),
					"%s.Wait before %s.Add in the same block waits for nothing", obj.Name(), obj.Name()))
			}
		}
		return true
	})
	return diags
}
