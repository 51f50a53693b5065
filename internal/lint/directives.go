package lint

import (
	"go/token"
	"strings"
)

// Directives. One comment form steers the suite:
//
//	//decentlint:allow <check> <reason…>
//	    Suppresses findings of the named check on the directive's own line
//	    and on the line directly below it (so it can trail a statement or
//	    sit on its own line above one). The reason is mandatory, and the
//	    check must name an analyzer of the suite: an allow without a
//	    written justification, or one left behind for a check that no
//	    longer exists, is itself a finding.
//
// Directives are comments, so they survive gofmt and show up in review
// diffs next to the code they excuse.

const allowPrefix = "//decentlint:allow"

// allowDirective is one parsed //decentlint:allow comment.
type allowDirective struct {
	check  string
	reason string
	pos    token.Pos
	line   int
}

// directiveSet indexes a package's allow directives by file and line.
type directiveSet struct {
	// byLine maps filename -> line -> checks allowed on that line.
	byLine map[string]map[int]map[string]bool
	// malformed collects directives missing a check name or a reason, or
	// naming no analyzer; the driver surfaces them as findings so an empty
	// or stale excuse cannot silently pass.
	malformed []allowDirective
}

// collectDirectives parses every //decentlint:allow comment in the package.
func collectDirectives(pkg *Package) *directiveSet {
	set := &directiveSet{byLine: make(map[string]map[int]map[string]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				// Require a separator so "//decentlint:allowance" never parses.
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				d := allowDirective{pos: c.Pos(), line: pos.Line}
				if len(fields) >= 1 {
					d.check = fields[0]
				}
				if len(fields) >= 2 {
					d.reason = strings.Join(fields[1:], " ")
				}
				if d.check == "" || d.reason == "" || !isAnalyzer(d.check) {
					set.malformed = append(set.malformed, d)
					continue
				}
				file := set.byLine[pos.Filename]
				if file == nil {
					file = make(map[int]map[string]bool)
					set.byLine[pos.Filename] = file
				}
				// The directive covers its own line (trailing form) and
				// the next line (standalone form above a statement).
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if file[line] == nil {
						file[line] = make(map[string]bool)
					}
					file[line][d.check] = true
				}
			}
		}
	}
	return set
}

// allows reports whether a finding of check at position is suppressed.
func (s *directiveSet) allows(check string, pos token.Position) bool {
	return s.byLine[pos.Filename][pos.Line][check]
}

// isAnalyzer reports whether name is the name of an analyzer of the suite.
func isAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}
