// Package analyzers holds the repo-specific static-analysis passes run
// by cmd/numarcklint. Each analyzer encodes one NUMARCK correctness
// invariant that neither the type system, go vet nor a test enforces:
// exact floating-point comparison discipline (floatcmp), sound
// sync.WaitGroup ordering in the goroutine-parallel paths (waitgroup),
// no dropped errors on the persistence paths (errcheck), a fully
// documented public surface (doccomment), the faultfs filesystem seam
// on the durability paths (fsseam), op+path error wrapping on the store
// packages (errwrap), and registry-only obs stage names with leak-free
// timers (obsstage). Every analyzer is package-local. DESIGN.md §1
// records, per analyzer, a mutant of real code that only it catches.
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
		Errcheck{},
		Doccomment{},
		Fsseam{},
		Errwrap{},
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
