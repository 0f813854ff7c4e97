// Package analyzers holds the repo-specific static-analysis passes run
// by cmd/numarcklint. Each analyzer encodes one NUMARCK correctness
// invariant: exact floating-point comparison discipline (floatcmp),
// sound sync.WaitGroup use in the goroutine-parallel paths (waitgroup),
// cancellable goroutine channel sends (ctxleak), no dropped errors on
// the persistence paths (errcheck), truncation-free bin-index
// conversions (bindex), a fully documented public surface (doccomment),
// the faultfs filesystem seam on the durability paths (fsseam), op+path
// error wrapping on the store packages (errwrap), no mixed
// atomic/plain field access (atomicfield), accounted-for goroutines in
// the pipeline package (goroleak), and registry-only obs stage names
// with leak-free timers (obsstage).
//
// The last five lean on the engine's fact phase (analysis.FactComputer)
// and call graph for cross-package, interprocedural reasoning; the
// first six are package-local.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"numarck/internal/analysis"
)

// All returns every analyzer, in stable order.
func All() []analysis.Analyzer {
	return []analysis.Analyzer{
		Floatcmp{},
		Waitgroup{},
		Ctxleak{},
		Errcheck{},
		Bindex{},
		Doccomment{},
		Fsseam{},
		Errwrap{},
		Atomicfield{},
		Goroleak{},
		Obsstage{},
	}
}

// inScope reports whether pkgPath is one of the listed module packages
// (or a subpackage of one). Fixture packages loaded by analysistest
// ("fixture/...") are always in scope, so every analyzer is testable
// without replicating the real module layout.
func inScope(pkgPath string, pkgs ...string) bool {
	if strings.HasPrefix(pkgPath, "fixture/") {
		return true
	}
	for _, p := range pkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// funcsOf returns the named functions and methods declared in the
// pass's files, in source order, paired with their declarations.
func funcsOf(p *analysis.Pass) []funcDecl {
	var out []funcDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				out = append(out, funcDecl{fn: fn, decl: fd})
			}
		}
	}
	return out
}

// funcDecl pairs a function object with its syntax.
type funcDecl struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

// inspectStack walks root like ast.Inspect but hands the visitor the
// stack of enclosing nodes (outermost first, not including n itself).
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		enter := f(n, stack)
		if enter {
			stack = append(stack, n)
		}
		return enter
	})
}

// rootIdent unwraps an expression to its base identifier: x, x.f, *x,
// x[i].f all resolve to x. Returns nil when the base is not a plain
// identifier (e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its object via Uses or Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && node != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// isSyncNamed reports whether t (after pointer unwrapping) is the named
// type sync.<name>.
func isSyncNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// calleeFunc resolves a call expression to the function or method it
// invokes, or nil for indirect calls, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := objectOf(info, fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		if f, ok := objectOf(info, fun.Sel).(*types.Func); ok {
			return f
		}
	}
	return nil
}

// basicIntWidth returns the bit width and signedness of a basic integer
// type. int, uint and uintptr count as 64-bit: the production targets
// are 64-bit and assuming the narrower possibility everywhere would
// drown real findings in 32-bit-only noise.
func basicIntWidth(t types.Type) (width int, signed bool, ok bool) {
	b, isBasic := t.Underlying().(*types.Basic)
	if !isBasic || b.Info()&types.IsInteger == 0 {
		return 0, false, false
	}
	switch b.Kind() {
	case types.Int8:
		return 8, true, true
	case types.Int16:
		return 16, true, true
	case types.Int32:
		return 32, true, true
	case types.Int64, types.Int:
		return 64, true, true
	case types.Uint8:
		return 8, false, true
	case types.Uint16:
		return 16, false, true
	case types.Uint32:
		return 32, false, true
	case types.Uint64, types.Uint, types.Uintptr:
		return 64, false, true
	}
	return 0, false, false
}

// enclosingFuncName returns the name of the innermost named function
// declaration on the stack, or "" inside a function literal only.
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}
