package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the package's import path.
	Path string
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the type-checker's fact tables.
	Info *types.Info
}

// Module is the result of loading a module tree.
type Module struct {
	// Path is the module path declared in go.mod.
	Path string
	// Fset is the shared file set of every parsed file.
	Fset *token.FileSet
	// Packages are the module's packages in dependency order.
	Packages []*Package
}

// FindModuleRoot walks upward from dir to the directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// skipDir reports whether a directory is excluded from loading:
// VCS metadata, vendored code, testdata fixtures (which contain
// intentional defects) and hidden or underscore-prefixed trees.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// Load parses and type-checks every package under the module containing
// dir. Test files (_test.go) are not loaded; testdata and vendor trees
// are skipped. Packages are returned in dependency order, so analyzers
// may rely on imports of earlier entries being fully checked.
func Load(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	raw := map[string][]*ast.File{} // import path -> parsed files

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: parse %s: %w", path, err)
		}
		pkgDir := filepath.Dir(path)
		rel, err := filepath.Rel(root, pkgDir)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		raw[importPath] = append(raw[importPath], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Topological order over module-internal imports so every package
	// type-checks after its dependencies.
	order, err := topoSort(raw, func(files []*ast.File) []string {
		var deps []string
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					deps = append(deps, p)
				}
			}
		}
		return deps
	})
	if err != nil {
		return nil, err
	}

	mod := &Module{Path: modPath, Fset: fset}
	checked := map[string]*types.Package{}
	imp := &moduleImporter{
		checked:  checked,
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	for _, importPath := range order {
		files := raw[importPath]
		// Deterministic file order: parse order follows WalkDir, which
		// is already lexical, but sort defensively by filename.
		sort.Slice(files, func(i, j int) bool {
			return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
		})
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(importPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-check %s: %w", importPath, err)
		}
		checked[importPath] = tpkg
		mod.Packages = append(mod.Packages, &Package{
			Path:  importPath,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return mod, nil
}

// topoSort orders raw packages so dependencies precede dependents.
// Ties break lexically for deterministic output.
func topoSort[T any](pkgs map[string]T, deps func(T) []string) ([]string, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = iota
		visiting
		done
	)
	state := map[string]int{}
	var order []string
	var visit func(string, []string) error
	visit = func(p string, stack []string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle: %s", strings.Join(append(stack, p), " -> "))
		}
		state[p] = visiting
		d := deps(pkgs[p])
		sort.Strings(d)
		for _, dep := range d {
			if _, ok := pkgs[dep]; !ok {
				continue // outside the module (or missing — the checker will say)
			}
			if err := visit(dep, append(stack, p)); err != nil {
				return err
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the packages
// type-checked so far and everything else (the standard library)
// through the source importer, which type-checks from source and so
// needs no pre-compiled export data.
type moduleImporter struct {
	checked  map[string]*types.Package
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// Match reports whether pkg (an import path relative to the module,
// e.g. "internal/core", or the full path) is selected by pattern.
// Patterns follow the go tool's shape: "./..." selects everything,
// "./x/..." a subtree, "./x" or "x" one package, "." the root package.
func (mod *Module) Match(pkg *Package, pattern string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, mod.Path), "/")
	pattern = strings.TrimPrefix(pattern, "./")
	switch {
	case pattern == "..." || pattern == "":
		return true
	case strings.HasSuffix(pattern, "/..."):
		prefix := strings.TrimSuffix(pattern, "/...")
		return rel == prefix || strings.HasPrefix(rel, prefix+"/")
	case pattern == ".":
		return rel == ""
	default:
		return rel == pattern
	}
}
