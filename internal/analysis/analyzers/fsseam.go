package analyzers

import (
	"go/ast"

	"numarck/internal/analysis"
)

// Fsseam enforces the faultfs filesystem seam on the durability
// packages: code in internal/checkpoint or internal/rawio may not call
// a mutating os-package function — os.Create, os.Rename, os.Remove,
// os.WriteFile, (*os.File).Write, ... — directly; it goes through the
// faultfs.FS interface. The crash matrix proves durability by killing
// the store at every mutating operation of the injectable seam; a
// direct os call is invisible to the injector and therefore a hole in
// the proof. The scope covers the whole store: checkpoint commits, the
// LOCK acquisition/takeover/release path, and CHAININDEX publication
// all mutate the store directory and must stay killable; the lock-free
// read view must stay on the seam too, because its read-only claim is
// proven by substituting an FS whose mutating operations fail.
//
// The check is a per-package scan of static callees. A helper in
// another package that mutates through os is that package's concern:
// faultfs's own tests pin that its FS implementation and helpers reach
// the disk only through the seam.
type Fsseam struct{}

// Name implements analysis.Analyzer.
func (Fsseam) Name() string { return "fsseam" }

// Doc implements analysis.Analyzer.
func (Fsseam) Doc() string {
	return "flags mutating os calls in checkpoint/rawio made outside the faultfs.FS seam"
}

// osMutating is the set of mutating identifiers in package os:
// package-level functions and *os.File methods that create, modify or
// make durable on-disk state. Read-only entry points (os.Open,
// os.ReadFile, os.Stat, os.ReadDir) are deliberately absent.
var osMutating = map[string]bool{
	"Create": true, "OpenFile": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "WriteFile": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true, "CreateTemp": true,
	"Chmod": true, "Chtimes": true, "Link": true, "Symlink": true,
	// *os.File methods:
	"Write": true, "WriteString": true, "WriteAt": true, "Sync": true,
}

// seamScope lists the packages the seam invariant covers.
var seamScope = []string{
	"numarck/internal/checkpoint",
	"numarck/internal/rawio",
}

// Run implements analysis.Analyzer: within the scoped packages it flags
// every call whose static callee is a mutating os function or method.
// Calls through the faultfs.FS interface have an interface method as
// their callee, never an os one, so routing through the seam is exactly
// what makes a call clean.
func (Fsseam) Run(p *analysis.Pass) []analysis.Diagnostic {
	if !inScope(p.PkgPath, seamScope...) {
		return nil
	}
	var diags []analysis.Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !osMutating[fn.Name()] {
				return true
			}
			diags = append(diags, p.Diagf("fsseam", call.Pos(),
				"mutating call os.%s escapes the faultfs.FS seam; route it through an injected faultfs.FS", fn.Name()))
			return true
		})
	}
	return diags
}
