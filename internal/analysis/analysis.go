// Package analysis is a stdlib-only static-analysis framework for this
// module, in the spirit of golang.org/x/tools/go/analysis but built
// exclusively on go/parser, go/ast, go/types and go/token so the repo
// keeps its zero-dependency constraint.
//
// The framework loads and type-checks every package in the module
// (Load) and runs a set of Analyzers over them in two phases. The fact
// phase visits every package in dependency order and lets analyzers
// implementing FactComputer export facts about functions, types and
// fields into a module-wide table (Facts), with a static call graph
// (CallGraph) built from the type-checker's resolution maps — the
// substrate for interprocedural reasoning such as "this function
// transitively reaches a mutating os call". The diagnostic phase then
// runs every analyzer over the selected packages in parallel, honours
// `//lint:ignore <analyzer> <reason>` suppressions (and reports unused
// ones), and renders position-accurate diagnostics as text or JSON.
// cmd/numarcklint is the command-line driver; the repo-specific
// analyzers live in the analyzers subpackage.
//
// NUMARCK's correctness contract — exact error-bound enforcement over
// floating-point change ratios (§II-C, Eq. 3) and race-free
// goroutine-parallel k-means and distributed encode paths — is fragile
// in ways generic tooling misses; the analyzers here encode those
// repo-specific invariants and leave to go vet, which make verify runs
// alongside, every rule it already checks.
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
	// Facts is the module-wide fact table. During ComputeFacts it is
	// writable and imported packages' facts are complete; during Run it
	// is read-only and the whole module's facts are complete.
	Facts *Facts
	// Graph is the module-wide static call graph, immutable for the
	// whole run.
	Graph *CallGraph
}

// Position resolves a token.Pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string `json:"analyzer"`
	// Pos is the finding's resolved source position.
	Pos token.Position `json:"-"`
	// Message describes the finding.
	Message string `json:"message"`

	// File, Line and Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// Diagf constructs a Diagnostic at pos, resolving it through the pass.
func (p *Pass) Diagf(name string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		Analyzer: name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
	}
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}
