// Package analysis is a stdlib-only static-analysis framework for this
// module, in the spirit of golang.org/x/tools/go/analysis but built
// exclusively on go/parser, go/ast, go/types and go/token so the repo
// keeps its zero-dependency constraint.
//
// The framework loads and type-checks every package in the module
// (Load) and runs a set of Analyzers over the selected packages in
// parallel. Every analyzer sees one package at a time: none needs
// another package's syntax, only the type information its imports
// export. Run honours `//lint:ignore <analyzer> <reason>` suppressions
// (and reports unused ones) and renders position-accurate diagnostics
// as text. cmd/numarcklint is the command-line driver; the
// repo-specific analyzers live in the analyzers subpackage.
//
// NUMARCK's correctness contract — exact error-bound enforcement over
// floating-point change ratios (§II-C, Eq. 3) and checkpoints that
// survive a crash — is fragile in ways generic tooling misses. The
// analyzers here keep only the rules that neither the type system,
// go vet (which make verify runs alongside) nor a test already
// enforces; DESIGN.md §1 records, per analyzer, the mutant that only
// it catches.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static-analysis pass.
type Analyzer interface {
	// Name is the analyzer's identifier, used in output and in
	// //lint:ignore suppressions. Lower-case, no spaces.
	Name() string
	// Doc is a one-line description of what the analyzer reports.
	Doc() string
	// Run inspects one type-checked package and returns its findings.
	// Implementations must be safe for concurrent use: Run is invoked
	// from multiple goroutines on different passes.
	Run(p *Pass) []Diagnostic
}

// Pass carries one type-checked package to an Analyzer.
type Pass struct {
	// Fset maps token.Pos to file positions for every file of the load.
	Fset *token.FileSet
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the package's import path within the module.
	PkgPath string
	// Files are the package's parsed files, with comments.
	Files []*ast.File
	// Info holds the type-checker's expression, definition and use
	// maps for the package.
	Info *types.Info
}

// Position resolves a token.Pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the finding.
	Message string
	// File, Line and Col are the finding's resolved source position.
	File string
	Line int
	Col  int
}

// diagAt constructs a Diagnostic at a resolved position.
func diagAt(name string, pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
	}
}

// Diagf constructs a Diagnostic at pos, resolving it through the pass.
func (p *Pass) Diagf(name string, pos token.Pos, format string, args ...any) Diagnostic {
	return diagAt(name, p.Fset.Position(pos), format, args...)
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}
