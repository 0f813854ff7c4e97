package analysis

import (
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file map under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goMod = "module tinymod\n\ngo 1.22\n"

// TestLoadResolvesIntraModuleImports: package b imports package a; the
// loader must type-check them in dependency order and expose both.
func TestLoadResolvesIntraModuleImports(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":         goMod,
		"a/a.go":         "package a\n\nfunc Value() int { return 42 }\n",
		"b/b.go":         "package b\n\nimport \"tinymod/a\"\n\nfunc Double() int { return 2 * a.Value() }\n",
		"b/b2.go":        "package b\n\nvar extra = Double()\n",
		"_skip/s.go":     "package broken !!!\n",
		"testdata/fx.go": "package alsobroken {{{\n",
		"vendor/v/v.go":  "package v ???\n",
	})
	mod, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "tinymod" {
		t.Errorf("module path = %q, want tinymod", mod.Path)
	}
	var paths []string
	for _, p := range mod.Packages {
		paths = append(paths, p.Path)
	}
	if len(paths) != 2 {
		t.Fatalf("loaded %v, want exactly [tinymod/a tinymod/b]", paths)
	}
	// Dependency order: a must come before its importer b.
	if paths[0] != "tinymod/a" || paths[1] != "tinymod/b" {
		t.Errorf("packages out of dependency order: %v", paths)
	}
	if got := len(mod.Packages[1].Files); got != 2 {
		t.Errorf("package b has %d files, want 2", got)
	}
	for _, p := range mod.Packages {
		if p.Types == nil || p.Info == nil {
			t.Errorf("package %s missing type info", p.Path)
		}
	}
}

// TestLoadReportsTypeErrors: a module that does not type-check must
// fail loudly, not produce half-checked packages.
func TestLoadReportsTypeErrors(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": goMod,
		"a/a.go": "package a\n\nfunc f() int { return \"not an int\" }\n",
	})
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a module with type errors")
	}
}

// TestFindModuleRootWalksUp: Load from a nested directory finds the
// enclosing go.mod.
func TestFindModuleRootWalksUp(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":    goMod,
		"deep/x.go": "package deep\n",
	})
	root, err := FindModuleRoot(filepath.Join(dir, "deep"))
	if err != nil {
		t.Fatal(err)
	}
	if resolved, _ := filepath.EvalSymlinks(dir); root != dir && root != resolved {
		t.Errorf("root = %q, want %q", root, dir)
	}
}

// TestMatch pins the pattern grammar the driver documents.
func TestMatch(t *testing.T) {
	mod := &Module{Path: "tinymod"}
	core := &Package{Path: "tinymod/internal/core"}
	rootPkg := &Package{Path: "tinymod"}
	cases := []struct {
		pkg     *Package
		pattern string
		want    bool
	}{
		{core, "./...", true},
		{rootPkg, "./...", true},
		{core, "./internal/...", true},
		{core, "./internal/core", true},
		{core, "./internal/kmeans", false},
		{core, ".", false},
		{rootPkg, ".", true},
		{core, "./cmd/...", false},
	}
	for _, c := range cases {
		if got := mod.Match(c.pkg, c.pattern); got != c.want {
			t.Errorf("Match(%s, %q) = %v, want %v", c.pkg.Path, c.pattern, got, c.want)
		}
	}
}

// loadOne loads a single-package module and stashes its fset in
// modFset for the suppression scanner.
func loadOne(t *testing.T, src string) *Package {
	t.Helper()
	dir := writeTree(t, map[string]string{
		"go.mod": goMod,
		"p/p.go": src,
	})
	mod, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	modFset = mod.Fset
	return mod.Packages[0]
}

// modFset holds the fset of the most recent loadOne module.
var modFset *token.FileSet

// TestSuppressionScope: a directive silences its own line and the line
// below, for the named analyzer, in the same file only.
func TestSuppressionScope(t *testing.T) {
	pkg := loadOne(t, `package p

//lint:ignore demo,other covered by an invariant elsewhere
var a = 1

var b = 2 //lint:ignore demo end-of-line form
`)
	sups, diags := collectSuppressions(pkg, modFset)
	if len(diags) != 0 {
		t.Fatalf("unexpected malformed-directive diags: %v", diags)
	}
	if len(sups) != 2 {
		t.Fatalf("got %d suppressions, want 2", len(sups))
	}
	file := sups[0].pos.Filename
	mk := func(an string, line int) Diagnostic {
		return Diagnostic{Analyzer: an, File: file, Line: line}
	}
	if suppressing(mk("demo", 4), sups) == nil {
		t.Error("line below standalone directive not suppressed")
	}
	if suppressing(mk("other", 4), sups) == nil {
		t.Error("second analyzer in comma list not suppressed")
	}
	if suppressing(mk("demo", 6), sups) == nil {
		t.Error("end-of-line directive did not suppress its own line")
	}
	if suppressing(mk("demo", 5), sups) != nil {
		t.Error("suppression leaked past its line+1 window")
	}
	if suppressing(mk("unrelated", 4), sups) != nil {
		t.Error("suppression silenced an analyzer it does not name")
	}
	if suppressing(Diagnostic{Analyzer: "demo", File: "elsewhere.go", Line: 4}, sups) != nil {
		t.Error("suppression crossed a file boundary")
	}
}

// TestMalformedSuppression: a directive without a reason becomes a
// "lint" diagnostic instead of a silent switch-off.
func TestMalformedSuppression(t *testing.T) {
	pkg := loadOne(t, `package p

//lint:ignore demo
var a = 1
`)
	sups, diags := collectSuppressions(pkg, modFset)
	if len(sups) != 0 {
		t.Fatalf("malformed directive produced a suppression: %+v", sups)
	}
	if len(diags) != 1 || diags[0].Analyzer != "lint" {
		t.Fatalf("diags = %+v, want one under analyzer \"lint\"", diags)
	}
}

// TestRunEndToEnd: Run applies analyzers, drops suppressed findings,
// counts them, and renders the rest as file:line:col text.
func TestRunEndToEnd(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": goMod,
		"p/p.go": `package p

func cmp(a, b float64) bool { return a == b }

func fine(a, b float64) bool {
	//lint:ignore demo tested elsewhere
	return a != b
}
`,
	})
	mod, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(mod, mod.Packages, []Analyzer{demoAnalyzer{}})
	if res.Packages != 1 {
		t.Errorf("Packages = %d, want 1", res.Packages)
	}
	if len(res.Diagnostics) != 1 {
		t.Fatalf("Diagnostics = %+v, want exactly the unsuppressed one", res.Diagnostics)
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
	d := res.Diagnostics[0]
	if d.Line != 3 || d.Analyzer != "demo" {
		t.Errorf("diagnostic = %+v, want demo at line 3", d)
	}

	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got, want := text.String(), "p.go:3:38: float comparison (demo)\n"; !strings.HasSuffix(got, want) {
		t.Errorf("text output = %q, want suffix %q", got, want)
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
	res = Run(mod, mod.Packages, []Analyzer{silentAnalyzer{}})
	if len(res.Diagnostics) != 0 {
		t.Errorf("subset run reported %+v; unused check must require the named analyzer", res.Diagnostics)
	}
}

// demoAnalyzer flags every float equality comparison; just enough to
// exercise the runner without depending on the real analyzers package
// (which would be an import cycle through analysistest).
type demoAnalyzer struct{}

func (demoAnalyzer) Name() string { return "demo" }
func (demoAnalyzer) Doc() string  { return "flags float comparisons (test-only)" }

func (demoAnalyzer) Run(p *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if t, ok := p.Info.TypeOf(be.X).(*types.Basic); ok && t.Info()&types.IsFloat != 0 {
				diags = append(diags, p.Diagf("demo", be.Pos(), "float comparison"))
			}
			return true
		})
	}
	return diags
}

// silentAnalyzer reports nothing: a run of it alone is a run that
// leaves "demo" out.
type silentAnalyzer struct{}

func (silentAnalyzer) Name() string           { return "silent" }
func (silentAnalyzer) Doc() string            { return "reports nothing (test-only)" }
func (silentAnalyzer) Run(*Pass) []Diagnostic { return nil }
