package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The suppression directive:
//
//	//emlint:ignore <analyzer> <reason>
//
// placed at the end of the offending line or on its own line directly
// above it. The analyzer name and a free-text reason are both
// mandatory; a directive without them is itself reported (analyzer
// name "ignore"), so suppressions stay auditable.

const directivePrefix = "//emlint:ignore"

// IgnoreName is the pseudo-analyzer name under which malformed
// directives are reported.
const IgnoreName = "ignore"

// ignoreSet records, per file and line, which analyzers are
// suppressed on that line.
type ignoreSet map[string]map[int][]string

// collectIgnores scans the files' comments for directives. It returns
// the suppression set and a diagnostic for every malformed directive.
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	ig := make(ignoreSet)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := c.Text[len(directivePrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //emlint:ignorexyz — not the directive
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:     c.Pos(),
						Message: "emlint:ignore needs an analyzer name and a reason: //emlint:ignore <analyzer> <reason>",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := ig[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					ig[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], fields[0])
			}
		}
	}
	return ig, bad
}

// suppressed reports whether a finding by the named analyzer at pos is
// covered by a directive on the same line or the line above.
func (ig ignoreSet) suppressed(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	byLine := ig[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, a := range byLine[line] {
			if a == analyzer {
				return true
			}
		}
	}
	return false
}

// finding pairs a diagnostic with the analyzer that produced it; the
// drivers (unit.go and linttest) work on findings so suppression and
// output can be analyzer-aware.
type finding struct {
	analyzer string
	diag     Diagnostic
}

// runAnalyzers executes every analyzer over one package and applies
// the suppression directives, returning the surviving findings (in
// file/position order per analyzer) plus malformed-directive findings.
// Findings in _test.go files are dropped unless the analyzer is about
// tests (Analyzer.Tests): the other invariants are about production
// code.
func runAnalyzers(analyzers []*Analyzer, pass Pass) ([]finding, error) {
	var out []finding
	ig, bad := collectIgnores(pass.Fset, pass.Files)
	for _, d := range bad {
		if !isTestFile(pass.Fset, d.Pos) {
			out = append(out, finding{analyzer: IgnoreName, diag: d})
		}
	}
	for _, a := range analyzers {
		p := pass // copy
		p.Analyzer = a
		var diags []Diagnostic
		p.Report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(&p); err != nil {
			return nil, err
		}
		for _, d := range diags {
			if isTestFile(pass.Fset, d.Pos) && !a.Tests {
				continue
			}
			if ig.suppressed(pass.Fset, a.Name, d.Pos) {
				continue
			}
			out = append(out, finding{analyzer: a.Name, diag: d})
		}
	}
	return out, nil
}
