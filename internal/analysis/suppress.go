package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// suppressionDirective is the comment prefix that silences a finding.
const suppressionDirective = "//lint:ignore"

// suppression is one parsed //lint:ignore comment. It silences the
// named analyzers on its own line (end-of-line form) and on the line
// immediately below it (standalone form).
type suppression struct {
	names map[string]bool
	pos   token.Position // of the directive comment
	used  bool           // set when the suppression silenced a finding
}

// collectSuppressions scans a package's comments for lint:ignore
// directives. Malformed directives — a missing analyzer list, a missing
// or whitespace-only reason, or non-canonical spacing — are themselves
// reported as diagnostics under the reserved analyzer name "lint", so
// suppressions can never silently rot into bare switch-offs.
func collectSuppressions(p *Package, fset *token.FileSet) ([]*suppression, []Diagnostic) {
	var sups []*suppression
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, suppressionDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, suppressionDirective)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //lint:ignorefoo — not this directive
				}
				pos := fset.Position(c.Pos())
				lintDiag := func(format string, args ...any) Diagnostic {
					return diagAt("lint", pos, format, args...)
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, lintDiag(
						"malformed //lint:ignore: the reason is mandatory; want \"//lint:ignore <analyzer>[,<analyzer>...] <reason>\""))
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(fields[0], ",") {
					if n != "" {
						names[n] = true
					}
				}
				if len(names) == 0 {
					diags = append(diags, lintDiag(
						"malformed //lint:ignore: empty analyzer list"))
					continue
				}
				if canon := canonicalDirective(names, fields[1:]); c.Text != canon {
					// The directive still works while non-canonical:
					// report it and fall through to record it.
					diags = append(diags, lintDiag("non-canonical //lint:ignore spacing; want %q", canon))
				}
				sups = append(sups, &suppression{names: names, pos: pos})
			}
		}
	}
	return sups, diags
}

// canonicalDirective renders the one accepted spelling of a
// suppression: single spaces, analyzer names sorted and
// comma-separated without spaces.
func canonicalDirective(names map[string]bool, reasonFields []string) string {
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	return suppressionDirective + " " + strings.Join(sorted, ",") + " " + strings.Join(reasonFields, " ")
}

// suppressing returns the suppression silencing d — one on the
// diagnostic's own line, or one on the line directly above it — or nil.
func suppressing(d Diagnostic, sups []*suppression) *suppression {
	for _, s := range sups {
		if !s.names[d.Analyzer] {
			continue
		}
		if d.File == "" || s.pos.Filename != d.File {
			continue
		}
		if s.pos.Line == d.Line || s.pos.Line == d.Line-1 {
			return s
		}
	}
	return nil
}
