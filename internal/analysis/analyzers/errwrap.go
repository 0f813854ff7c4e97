package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"numarck/internal/analysis"
)

// Errwrap enforces the store packages' error-wrapping convention: every
// error that crosses the exported surface of internal/checkpoint,
// internal/chunk or internal/rawio must stay inspectable with errors.Is
// and carry op+path context (the pathErr style). Two violations are
// flagged:
//
//  1. fmt.Errorf rendering an error operand with a non-%w verb (%v, %s,
//     %q, ...): the chain is severed, errors.Is(err, ErrCorrupt) stops
//     working.
//  2. an exported function returning an error that came straight from
//     an os or faultfs call with no wrapping at all: the caller sees
//     "no such file" with no hint of which operation or path failed.
type Errwrap struct{}

// Name implements analysis.Analyzer.
func (Errwrap) Name() string { return "errwrap" }

// Doc implements analysis.Analyzer.
func (Errwrap) Doc() string {
	return "flags severed (%v on error) or missing op+path error wrapping in checkpoint/chunk/rawio"
}

// errwrapScope lists the packages whose error discipline is enforced.
var errwrapScope = []string{
	"numarck/internal/checkpoint",
	"numarck/internal/chunk",
	"numarck/internal/rawio",
}

// Run implements analysis.Analyzer.
func (Errwrap) Run(p *analysis.Pass) []analysis.Diagnostic {
	if !inScope(p.PkgPath, errwrapScope...) {
		return nil
	}
	var diags []analysis.Diagnostic
	for _, fd := range funcsOf(p) {
		if fd.decl.Body == nil {
			continue
		}
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				diags = append(diags, checkErrorfVerbs(p, call)...)
			}
			return true
		})
		if fd.decl.Name.IsExported() {
			diags = append(diags, checkBareReturns(p, fd)...)
		}
	}
	return diags
}

// checkErrorfVerbs flags error operands of fmt.Errorf formatted with a
// verb other than %w.
func checkErrorfVerbs(p *analysis.Pass, call *ast.CallExpr) []analysis.Diagnostic {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return nil
	}
	if len(call.Args) < 2 {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	var diags []analysis.Diagnostic
	for i, letter := range formatVerbs(lit.Value) {
		argIdx := 1 + i
		if argIdx >= len(call.Args) || letter == 'w' {
			continue
		}
		argType := p.Info.TypeOf(call.Args[argIdx])
		if argType == nil || !isErrorType(argType) {
			continue
		}
		diags = append(diags, p.Diagf("errwrap", call.Args[argIdx].Pos(),
			"fmt.Errorf renders an error with %%%c, severing the errors.Is chain; use %%w", letter))
	}
	return diags
}

// formatVerbs returns the verb letters of a string literal's source
// text, in order. '%' never needs escaping in Go string literals, so
// the quoted source reads the same as the value. %% is skipped. Indexed
// verbs (%[1]d) and * widths consume no extra slots here — close enough
// for the error-operand check, which re-validates the matched argument's
// type before reporting.
func formatVerbs(src string) []byte {
	var out []byte
	for i := 0; i < len(src); i++ {
		if src[i] != '%' {
			continue
		}
		j := i + 1
		if j < len(src) && src[j] == '%' {
			i = j
			continue
		}
		for j < len(src) && strings.ContainsRune("+-# 0123456789.*[]", rune(src[j])) {
			j++
		}
		if j < len(src) && isVerbLetter(src[j]) {
			out = append(out, src[j])
			i = j
		}
	}
	return out
}

func isVerbLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// isErrorType reports whether t is the error interface (or a named type
// implementing exactly it — errors through interfaces still sever).
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type()) ||
		types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// checkBareReturns flags returns of an error identifier whose every
// in-function source is a raw os or faultfs call — the error leaves the
// exported function with no op or path attached.
func checkBareReturns(p *analysis.Pass, fd funcDecl) []analysis.Diagnostic {
	// Pass 1: for every error-typed identifier object assigned in the
	// function, classify its sources. An object qualifies only if every
	// assignment comes from a bare os/faultfs call.
	type sourceInfo struct {
		bareFS bool // at least one assignment from a raw os/faultfs call
		other  bool // any assignment from anything else
	}
	sources := map[types.Object]*sourceInfo{}
	note := func(obj types.Object, rhs ast.Expr) {
		if obj == nil || !isErrorType(obj.Type()) {
			return
		}
		si := sources[obj]
		if si == nil {
			si = &sourceInfo{}
			sources[obj] = si
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isFSCall(p.Info, call) {
			si.bareFS = true
			return
		}
		si.other = true
	}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			note(objectOf(p.Info, id), as.Rhs[0])
		}
		return true
	})

	// Pass 2: flag returns of qualifying identifiers.
	var diags []analysis.Diagnostic
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			id, ok := ast.Unparen(res).(*ast.Ident)
			if !ok {
				continue
			}
			si := sources[objectOf(p.Info, id)]
			if si != nil && si.bareFS && !si.other {
				diags = append(diags, p.Diagf("errwrap", res.Pos(),
					"exported %s returns a raw os/faultfs error without op+path wrapping; wrap it (e.g. pathErr or fmt.Errorf with %%w)", fd.fn.Name()))
			}
		}
		return true
	})
	return diags
}

// isFSCall reports whether call statically targets the os package or a
// faultfs function/method — the error producers the wrapping convention
// covers.
func isFSCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "os" || path == "numarck/internal/faultfs" ||
		strings.HasSuffix(path, "/faultfs")
}
