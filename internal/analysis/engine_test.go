package analysis

import (
	"strings"
	"testing"

	"go/ast"
	"go/types"
)

// lookupFunc resolves a package-level function by name.
func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("%s is %T, want *types.Func", name, obj)
	}
	return fn
}

// TestCallGraphResolution pins the static call graph's semantics: named
// callees resolve, calls inside closures are attributed to the
// enclosing named function, and interface method calls resolve to
// nothing — that opacity is what makes seam-shaped code clean.
func TestCallGraphResolution(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": goMod,
		"p/p.go": `package p

type Seam interface{ Do() }

func leaf() {}

func caller() { leaf() }

func viaClosure() {
	f := func() { leaf() }
	f()
}

func viaInterface(s Seam) { s.Do() }
`,
	})
	mod, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg := mod.Packages[0]
	graph := BuildCallGraph(mod.Fset, mod.Packages)

	leaf := lookupFunc(t, pkg, "leaf")
	callsTo := func(from *types.Func, to *types.Func) int {
		n := 0
		for _, site := range graph.CallsFrom(from) {
			if site.Callee == to {
				n++
			}
		}
		return n
	}
	if n := callsTo(lookupFunc(t, pkg, "caller"), leaf); n != 1 {
		t.Errorf("caller -> leaf edges = %d, want 1", n)
	}
	if n := callsTo(lookupFunc(t, pkg, "viaClosure"), leaf); n != 1 {
		t.Errorf("closure call not attributed to enclosing function (edges = %d, want 1)", n)
	}
	for _, site := range graph.CallsFrom(lookupFunc(t, pkg, "viaInterface")) {
		if site.Callee != nil && site.Callee.Name() == "Do" {
			t.Errorf("interface method call resolved statically to %v; the seam must stay opaque", site.Callee)
		}
	}
}

// factProducer marks package-level functions whose name starts with
// Unsafe; factConsumer flags every call site of a marked function. The
// pair proves facts cross package boundaries through the engine.
type factProducer struct{}

func (factProducer) Name() string { return "producer" }
func (factProducer) Doc() string  { return "marks Unsafe* functions (test-only)" }
func (factProducer) Run(p *Pass) []Diagnostic {
	return nil
}
func (factProducer) ComputeFacts(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(fd.Name.Name, "Unsafe") {
				return true
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				p.Facts.Set(fn, "test.unsafe", true)
			}
			return true
		})
	}
}

type factConsumer struct{}

func (factConsumer) Name() string { return "consumer" }
func (factConsumer) Doc() string  { return "flags calls to marked functions (test-only)" }
func (factConsumer) Run(p *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, caller := range p.Graph.Callers() {
		if caller.Pkg() == nil || caller.Pkg().Path() != p.PkgPath {
			continue
		}
		for _, site := range p.Graph.CallsFrom(caller) {
			if p.Facts.Has(site.Callee, "test.unsafe") {
				diags = append(diags, p.Diagf("consumer", site.Pos, "call to unsafe %s", site.Callee.Name()))
			}
		}
	}
	return diags
}

// TestFactsCrossPackage: the producer's fact is exported from package a
// during the fact phase (which covers the whole module), so the
// consumer sees it when analyzing only package b.
func TestFactsCrossPackage(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": goMod,
		"a/a.go": "package a\n\nfunc UnsafeThing() {}\n",
		"b/b.go": "package b\n\nimport \"tinymod/a\"\n\nfunc use() { a.UnsafeThing() }\n",
	})
	mod, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onlyB []*Package
	for _, p := range mod.Packages {
		if p.Path == "tinymod/b" {
			onlyB = append(onlyB, p)
		}
	}
	res := Run(mod, onlyB, []Analyzer{factProducer{}, factConsumer{}})
	if len(res.Diagnostics) != 1 || !strings.Contains(res.Diagnostics[0].Message, "UnsafeThing") {
		t.Fatalf("Diagnostics = %+v, want one consumer finding about UnsafeThing", res.Diagnostics)
	}
	if !strings.HasSuffix(res.Diagnostics[0].File, "b.go") {
		t.Errorf("finding in %s, want b.go", res.Diagnostics[0].File)
	}
}

// TestUnusedSuppression: a directive that silences nothing becomes a
// "lint" finding — but only when every analyzer it names actually ran,
// so -only subsets cannot produce false positives.
func TestUnusedSuppression(t *testing.T) {
	src := `package p

func add(a, b int) int {
	//lint:ignore demo the comparison moved elsewhere
	return a + b
}
`
	dir := writeTree(t, map[string]string{"go.mod": goMod, "p/p.go": src})
	mod, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(mod, mod.Packages, []Analyzer{demoAnalyzer{}})
	if len(res.Diagnostics) != 1 {
		t.Fatalf("Diagnostics = %+v, want one unused-suppression finding", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Analyzer != "lint" || !strings.Contains(d.Message, "unused //lint:ignore suppression for demo") {
		t.Errorf("diagnostic = %+v", d)
	}

	// The named analyzer did not run: the suppression might be load-bearing.
	res = Run(mod, mod.Packages, []Analyzer{factProducer{}})
	if len(res.Diagnostics) != 0 {
		t.Errorf("subset run reported %+v; unused check must require the named analyzer", res.Diagnostics)
	}
}
