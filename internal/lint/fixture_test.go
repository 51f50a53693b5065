package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture runner is a minimal analysistest: fixture packages live
// under testdata/src/<import-path>/ and annotate expected findings with
// trailing `// want `+"`regexp`"+` comments (one backquoted regexp per
// expected finding on that line). Directive-suppressed lines carry no
// want; the sibling positive lines prove the analyzer would have fired.

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("lint test: no go.mod above working directory")
		}
		dir = parent
	}
}

// stdExports builds export data for the stdlib packages fixtures import.
func stdExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		listed, err := goList(moduleRoot(t), []string{"fmt", "math/rand", "os", "sort", "strings", "time"})
		if err != nil {
			exportsErr = err
			return
		}
		exportsMap = make(map[string]string, len(listed))
		for _, p := range listed {
			if p.Export != "" {
				exportsMap[p.ImportPath] = p.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatalf("building fixture export data: %v", exportsErr)
	}
	return exportsMap
}

// loadFixture type-checks testdata/src/<importPath> as importPath.
func loadFixture(t *testing.T, importPath string) *Package {
	t.Helper()
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	fset := token.NewFileSet()
	pkg, err := checkDir(fset, exportImporter(fset, stdExports(t)), importPath, dir, goFiles)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile("`([^`]*)`")

// fixtureWants parses `// want` comments, keyed by file:line.
func fixtureWants(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	seen := make(map[string]bool)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		fh, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				continue
			}
			key := fmt.Sprintf("%s:%d", name, line)
			for _, m := range wantRe.FindAllStringSubmatch(text[idx:], -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
				}
				wants[key] = append(wants[key], re)
			}
			if len(wants[key]) == 0 {
				t.Fatalf("%s: `// want` comment without a backquoted regexp", key)
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// runFixture applies analyzers to the fixture package and matches the
// findings against its want comments, failing on any mismatch in either
// direction.
func runFixture(t *testing.T, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, importPath)
	findings := RunAnalyzers(pkg, analyzers)
	wants := fixtureWants(t, pkg)
	got := make(map[string][]Finding)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f)
	}
	for key, res := range wants {
		fs := got[key]
		if len(fs) != len(res) {
			t.Errorf("%s: want %d finding(s), got %d: %v", key, len(res), len(fs), fs)
			continue
		}
		matched := make([]bool, len(fs))
		for _, re := range res {
			ok := false
			for i, f := range fs {
				if !matched[i] && re.MatchString(f.Message) {
					matched[i] = true
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s: no finding matches %q among %v", key, re, fs)
			}
		}
	}
	for key, fs := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected finding(s): %v", key, fs)
		}
	}
}

func TestNonDetermFixture(t *testing.T) {
	runFixture(t, "repro/internal/experiments/ndfix", NonDeterm)
}

func TestRNGStreamFixture(t *testing.T) {
	runFixture(t, "repro/internal/econ/rsfix", RNGStream)
}

// TestRNGStreamAllowedPackage: sim owns RNG construction, and the
// constructors are equally exempt from nondeterm's global-stream ban.
func TestRNGStreamAllowedPackage(t *testing.T) {
	runFixture(t, "repro/internal/sim/rsok", RNGStream, NonDeterm)
}

func TestFloatFmtFixture(t *testing.T) {
	runFixture(t, "repro/internal/report/fffix", FloatFmt)
}

// TestWallclockAllowlist: harness may read the wall clock, but ambient
// RNG there is still a finding.
func TestWallclockAllowlist(t *testing.T) {
	runFixture(t, "repro/internal/harness/wallfix", NonDeterm)
}

// TestOutOfScopePackage: cmd packages are outside the deterministic set.
func TestOutOfScopePackage(t *testing.T) {
	runFixture(t, "repro/cmd/oosfix", NonDeterm, FloatFmt)
}

// TestMalformedDirective: an allow without a reason suppresses nothing and
// is itself reported, and so is an allow naming a check the suite does not
// have (one left behind after its analyzer went).
func TestMalformedDirective(t *testing.T) {
	pkg := loadFixture(t, "repro/internal/econ/badallow")
	findings := RunAnalyzers(pkg, Analyzers())
	if len(findings) != 3 {
		t.Fatalf("want 3 findings (two malformed directives + unsuppressed Getenv), got %d: %v", len(findings), findings)
	}
	var noReason, stale, getenv bool
	for _, f := range findings {
		switch {
		case f.Analyzer == "directive" && strings.Contains(f.Message, "non-empty reason"):
			noReason = true
		case f.Analyzer == "directive" && strings.Contains(f.Message, `no analyzer is named "retired"`):
			stale = true
		case f.Analyzer == "nondeterm" && strings.Contains(f.Message, "os.Getenv"):
			getenv = true
		}
	}
	if !noReason || !stale || !getenv {
		t.Fatalf("missing expected findings: %v", findings)
	}
}

// TestLintClean runs the full suite over the real repository and asserts
// zero findings — the same gate CI's lint job enforces via
// `go run ./cmd/decentlint ./...`.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module")
	}
	findings, err := Run(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
