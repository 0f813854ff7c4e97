// Package analysistest runs an Analyzer over a fixture package and
// compares its findings against `// want "regexp"` expectations in the
// fixture source, golden-file style. Each analyzer in
// internal/analysis/analyzers has a fixture under its testdata
// directory, so detection-logic regressions fail the analyzer's own
// tests.
//
// A fixture directory may contain subdirectories; each is type-checked
// first as a helper package importable from the fixture as
// "fixture/<subdir>" — how a fixture models an imported package, such
// as the registry whose constants obsstage requires. Diagnostics are
// collected from the fixture package alone.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"numarck/internal/analysis"
)

// want is one expectation: a regexp that must match a finding's
// message at a specific file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE extracts the quoted regexps of a want comment. Both
// double-quoted and backquoted forms are accepted; backquotes avoid
// double-escaping in patterns full of parentheses.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// Run loads the fixture package in dir (and any helper sub-packages),
// runs a over it, and reports any mismatch between findings and
// // want expectations as test errors: a finding with no matching want,
// or a want no finding matched.
func Run(t *testing.T, dir string, a analysis.Analyzer) {
	t.Helper()
	pass, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	wants, err := collectWants(pass.Fset, pass.Files)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	diags := a.Run(pass)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Col < diags[j].Col
	})
	for _, d := range diags {
		if d.Analyzer != a.Name() {
			t.Errorf("diagnostic reported under name %q, analyzer is %q", d.Analyzer, a.Name())
		}
		matched := false
		for _, w := range wants {
			if w.hit || filepath.Base(w.file) != filepath.Base(d.File) || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s", filepath.Base(d.File), d.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("no finding matched want %q at %s:%d", w.re, filepath.Base(w.file), w.line)
		}
	}
}

// fixtureImporter resolves "fixture/..." imports from the helper
// packages checked so far and everything else (the standard library)
// through the source importer.
type fixtureImporter struct {
	checked  map[string]*types.Package
	fallback types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.checked[path]; ok {
		return p, nil
	}
	return fi.fallback.Import(path)
}

// loadFixture parses and type-checks the package in dir, after any
// helper packages in its immediate subdirectories, and returns the
// fixture package's pass. The standard library resolves through the
// source importer, so fixtures may import sync, io, context, etc.
func loadFixture(dir string) (*analysis.Pass, error) {
	fset := token.NewFileSet()
	imp := &fixtureImporter{
		checked:  map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}

	check := func(pkgDir, pkgPath string) (*analysis.Pass, error) {
		entries, err := os.ReadDir(pkgDir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(pkgDir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no .go files in %s", pkgDir)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(pkgPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check fixture %s: %w", pkgDir, err)
		}
		imp.checked[pkgPath] = tpkg
		return &analysis.Pass{Fset: fset, Pkg: tpkg, PkgPath: pkgPath, Files: files, Info: info}, nil
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			if _, err := check(filepath.Join(dir, e.Name()), "fixture/"+e.Name()); err != nil {
				return nil, err
			}
		}
	}
	return check(dir, "fixture/"+filepath.Base(dir))
}

// collectWants parses // want comments out of the fixture files.
func collectWants(fset *token.FileSet, files []*ast.File) ([]*want, error) {
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					return nil, fmt.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}
