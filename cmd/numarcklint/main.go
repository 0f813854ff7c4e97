// Command numarcklint runs this repository's custom static-analysis
// passes (internal/analysis/analyzers) over the module. It is part of
// the tier-1 verification recipe alongside go vet, the race detector
// and the fuzz smoke tests — see the Makefile `verify` target.
//
// Usage:
//
//	numarcklint [-list] [-only a,b,...] [-dir path] [packages...]
//
// Package patterns follow the go tool's shape relative to the module
// root: "./..." (default) analyzes everything, "./internal/core" one
// package, "./internal/..." a subtree. Test files and testdata trees
// are not analyzed.
//
// -only restricts the run to a comma-separated list of analyzer names
// (see -list); -dir points at a directory inside another module.
// Findings are printed one per line as file:line:col: message
// (analyzer); they are reported, never rewritten: each one names the
// line to fix.
//
// Findings can be silenced in source with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the finding's line or the line above it; the reason is mandatory,
// and a suppression that no longer matches any finding is itself a
// finding.
//
// Exit status: 0 when clean, 1 when there are unsuppressed findings,
// 2 on usage or load errors (parse failures, type errors).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"numarck/internal/analysis"
	"numarck/internal/analysis/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("numarcklint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("dir", ".", "directory inside the module to analyze")
	only := fs.String("only", "", "run only the named analyzers (comma-separated, see -list)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analyzers.All()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *only != "" {
		byName := map[string]analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name()] = a
		}
		var sel []analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "numarcklint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			sel = append(sel, a)
		}
		if len(sel) == 0 {
			fmt.Fprintf(stderr, "numarcklint: -only names no analyzers\n")
			return 2
		}
		all = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := analysis.Load(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "numarcklint: %v\n", err)
		return 2
	}
	pkgs := selectPackages(mod, patterns)
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "numarcklint: no packages match %v\n", patterns)
		return 2
	}

	res := analysis.Run(mod, pkgs, all)
	if err := res.WriteText(stdout); err != nil {
		fmt.Fprintf(stderr, "numarcklint: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "numarcklint: %d finding(s), %d suppressed, %d package(s)\n",
		len(res.Diagnostics), res.Suppressed, res.Packages)
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// selectPackages filters the module's packages by the CLI patterns.
func selectPackages(mod *analysis.Module, patterns []string) []*analysis.Package {
	var pkgs []*analysis.Package
	for _, p := range mod.Packages {
		for _, pat := range patterns {
			if mod.Match(p, pat) {
				pkgs = append(pkgs, p)
				break
			}
		}
	}
	return pkgs
}
