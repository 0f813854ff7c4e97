package panics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// schedulers are the declarations under internal/ that may start a
// goroutine or hold a sync.WaitGroup: Each, the one fan-out, and the
// three schedulers that are more than one (see the package comment).
var schedulers = map[string]bool{
	"panics.Each":            true,
	"core.OrderedChunks":     true,
	"checkpoint.loadPool":    true, // the type: its WaitGroup field
	"checkpoint.newLoadPool": true,
	"dist.Encode":            true,
}

// TestOneFanOut fails when non-test code under internal/ starts a
// goroutine or declares a sync.WaitGroup outside the schedulers, so that
// a new worker loop goes through Each, which catches its panics, rather
// than hand-rolling its own.
func TestOneFanOut(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			check := func(name string, n ast.Node) {
				ast.Inspect(n, func(n ast.Node) bool {
					var what string
					switch n := n.(type) {
					case *ast.GoStmt:
						what = "go statement"
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "WaitGroup" {
							what = "sync.WaitGroup"
						}
					}
					if what != "" && !schedulers[f.Name.Name+"."+name] {
						t.Errorf("%s: %s in %s.%s; fan out through panics.Each", fset.Position(n.Pos()), what, f.Name.Name, name)
					}
					return true
				})
			}
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				check(decl.Name.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					name := "var"
					if ts, ok := spec.(*ast.TypeSpec); ok {
						name = ts.Name.Name
					}
					check(name, spec)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
