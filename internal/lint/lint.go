// Package lint implements decentlint, the repository's static-analysis
// suite. Three analyzers turn the reproduction's determinism contracts —
// byte-identical golden baselines, named RNG streams — into lint-time
// failures:
//
//	nondeterm  no wall clock, ambient RNG, env reads, or order-dependent
//	           map iteration inside the deterministic package set
//	rngstream  RNGs are constructed only in internal/sim and
//	           internal/randdist; everyone else uses named streams
//	floatfmt   no value-width-dependent float formatting in render paths
//
// The 0-alloc hot paths of internal/sim and internal/netmodel have one
// gate, the tier-1 AllocsPerRun tests. The committed mutants under
// testdata/mutants (TestMutantsKilled) show that an allocation of each
// class, in each hot path, fails one of them.
//
// Audited exceptions carry `//decentlint:allow <check> <reason>`; the
// reason is mandatory. Run the suite with `go run ./cmd/decentlint ./...`.
// Knob names need no analyzer: runners read knobs through typed handles,
// so the compiler rejects an unknown knob and TestReachability an unread
// one.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Every analyzer is a single-package
// syntax+types walk.
type Analyzer struct {
	// Name identifies the check in findings and in //decentlint:allow
	// directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph contract the check enforces.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass)
}

// Pass hands one analyzer invocation a single type-checked package and a
// sink for its findings.
type Pass struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	report    func(pos token.Pos, msg string)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzers returns the decentlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NonDeterm, RNGStream, FloatFmt}
}

// Finding is one unsuppressed diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// RunAnalyzers applies the analyzers to one loaded package, filters
// findings through the package's //decentlint:allow directives, and
// returns the survivors sorted by position. Malformed directives (missing
// check name or reason, or naming no analyzer) are findings themselves,
// attributed to the pseudo-check "directive".
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Finding {
	dirs := collectDirectives(pkg)
	var findings []Finding
	for _, d := range dirs.malformed {
		msg := "malformed //decentlint:allow: need a check name and a non-empty reason"
		if d.check != "" && d.reason != "" {
			msg = fmt.Sprintf("malformed //decentlint:allow: no analyzer is named %q", d.check)
		}
		findings = append(findings, Finding{Analyzer: "directive", Pos: pkg.Fset.Position(d.pos), Message: msg})
	}
	for _, a := range analyzers {
		a.Run(&Pass{
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report: func(p token.Pos, msg string) {
				if pos := pkg.Fset.Position(p); !dirs.allows(a.Name, pos) {
					findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: msg})
				}
			},
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// Run loads the packages matched by patterns relative to dir and applies
// the full suite, returning all findings ordered by package, file, line.
func Run(dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	suite := Analyzers()
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, RunAnalyzers(pkg, suite)...)
	}
	return all, nil
}
