package analysis

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Result is the outcome of running a set of analyzers over packages.
type Result struct {
	// Diagnostics are the surviving (unsuppressed) findings, sorted by
	// file, line, column, analyzer.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by //lint:ignore directives.
	Suppressed int
	// Packages counts the packages analyzed.
	Packages int
}

// Run executes analyzers over the selected packages, in parallel
// across (package, analyzer) pairs, applies suppressions, reports
// unused suppressions, and returns the sorted findings. Analyzer Run
// methods must be concurrency-safe.
func Run(mod *Module, pkgs []*Package, analyzers []Analyzer) *Result {
	passFor := func(p *Package) *Pass {
		return &Pass{
			Fset:    mod.Fset,
			Pkg:     p.Types,
			PkgPath: p.Path,
			Files:   p.Files,
			Info:    p.Info,
		}
	}

	type unit struct {
		pkg *Package
		an  Analyzer
	}
	var units []unit
	for _, p := range pkgs {
		for _, a := range analyzers {
			units = append(units, unit{p, a})
		}
	}

	results := make([][]Diagnostic, len(units))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(units) {
					return
				}
				results[i] = units[i].an.Run(passFor(units[i].pkg))
			}
		}()
	}
	wg.Wait()

	// The analyzer name set decides which suppressions are fully
	// checkable for the unused-suppression report: a directive naming
	// an analyzer that did not run might well be used on a full run.
	ranNames := map[string]bool{"lint": true}
	for _, a := range analyzers {
		ranNames[a.Name()] = true
	}

	res := &Result{Packages: len(pkgs)}
	for _, p := range pkgs {
		sups, malformed := collectSuppressions(p, mod.Fset)
		res.Diagnostics = append(res.Diagnostics, malformed...)
		for i, u := range units {
			if u.pkg != p {
				continue
			}
			for _, d := range results[i] {
				if s := suppressing(d, sups); s != nil {
					s.used = true
					res.Suppressed++
					continue
				}
				res.Diagnostics = append(res.Diagnostics, d)
			}
		}
		res.Diagnostics = append(res.Diagnostics, unusedSuppressions(sups, ranNames)...)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

// unusedSuppressions reports suppressions that silenced nothing even
// though every analyzer they name did run — dead directives that would
// otherwise hide future findings at their line forever.
func unusedSuppressions(sups []*suppression, ranNames map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, s := range sups {
		if s.used {
			continue
		}
		checkable := true
		for n := range s.names {
			if !ranNames[n] {
				checkable = false
				break
			}
		}
		if !checkable {
			continue
		}
		names := make([]string, 0, len(s.names))
		for n := range s.names {
			names = append(names, n)
		}
		sort.Strings(names)
		diags = append(diags, diagAt("lint", s.pos,
			"unused //lint:ignore suppression for %s: it silences nothing", strings.Join(names, ",")))
	}
	return diags
}

// WriteText renders findings one per line in file:line:col form.
func (r *Result) WriteText(w io.Writer) error {
	for _, d := range r.Diagnostics {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}
