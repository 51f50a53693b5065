package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"
)

// Committed mutants. Each file under testdata/mutants is one hand-made
// fault and the tests that must catch it: a header of `key: value` lines
// (`#` lines describe the fault), then an `-- old --` section holding text
// that occurs exactly once in the target file and a `-- new --` section
// that replaces it:
//
//	# Cancel formats a message on a stale handle.
//	file: internal/sim/sim.go
//	packages: ./internal/sim
//	killers: TestScheduleCancelZeroAllocs
//	-- old --
//	…
//	-- new --
//	…
//
// Killers are test names as `go test` prints them, subtests included. The
// hot-path mutants show that the tier-1 AllocsPerRun tests alone gate the
// 0-alloc contract of internal/sim and internal/netmodel: each allocates
// on a path one of them measures.

const (
	oldMarker = "-- old --\n"
	newMarker = "-- new --\n"
)

// mutant is one parsed spec.
type mutant struct {
	name     string
	file     string   // the target, relative to the module root
	packages []string // what `go test` runs
	killers  []string
	old, new string
}

// parseMutant parses one spec; name is the file name without .txt.
func parseMutant(name string, data []byte) (*mutant, error) {
	head, rest, ok := strings.Cut(string(data), "\n"+oldMarker)
	if !ok {
		return nil, fmt.Errorf("mutant %s: no %q section", name, strings.TrimSpace(oldMarker))
	}
	i := strings.Index(rest, "\n"+newMarker)
	if i < 0 {
		return nil, fmt.Errorf("mutant %s: no %q section", name, strings.TrimSpace(newMarker))
	}
	m := &mutant{name: name, old: rest[:i+1], new: rest[i+1+len(newMarker):]}
	for _, line := range strings.Split(head, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("mutant %s: header line %q is not key: value", name, line)
		}
		switch key {
		case "file":
			m.file = strings.TrimSpace(val)
		case "packages":
			m.packages = strings.Fields(val)
		case "killers":
			m.killers = strings.Fields(val)
		default:
			return nil, fmt.Errorf("mutant %s: unknown header key %q", name, key)
		}
	}
	switch {
	case m.file == "":
		return nil, fmt.Errorf("mutant %s: no file", name)
	case len(m.packages) == 0:
		return nil, fmt.Errorf("mutant %s: no packages", name)
	case len(m.killers) == 0:
		return nil, fmt.Errorf("mutant %s: names no killers", name)
	case strings.TrimSpace(m.old) == "" || m.old == m.new:
		return nil, fmt.Errorf("mutant %s: old must be non-blank and differ from new", name)
	}
	return m, nil
}

// apply returns src with the mutant's edit made, or an error unless old
// occurs in src exactly once.
func (m *mutant) apply(src []byte) ([]byte, error) {
	if n := bytes.Count(src, []byte(m.old)); n != 1 {
		return nil, fmt.Errorf("mutant %s: old matches %d times in %s, want exactly 1", m.name, n, m.file)
	}
	return bytes.Replace(src, []byte(m.old), []byte(m.new), 1), nil
}

// runPattern selects the killers' top-level tests for `go test -run`.
func (m *mutant) runPattern() string {
	var tops []string
	seen := map[string]bool{}
	for _, k := range m.killers {
		top, _, _ := strings.Cut(k, "/")
		if !seen[top] {
			seen[top] = true
			tops = append(tops, top)
		}
	}
	return "^(" + strings.Join(tops, "|") + ")$"
}

// killerPattern selects one killer, subtest path included, for
// `go test -run`.
func killerPattern(killer string) string {
	parts := strings.Split(killer, "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	return strings.Join(parts, "/")
}

// loadMutants parses every committed spec.
func loadMutants(t *testing.T, root string) []*mutant {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "internal", "lint", "testdata", "mutants", "*.txt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed mutants (%v)", err)
	}
	var ms []*mutant
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseMutant(strings.TrimSuffix(filepath.Base(p), ".txt"), data)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestMutantSpecs checks the specs without running the go command: every
// committed mutant parses and its old text occurs exactly once in its
// target, and a spec naming no killers, or whose old text is missing or
// ambiguous, is an error.
func TestMutantSpecs(t *testing.T) {
	root := moduleRoot(t)
	for _, m := range loadMutants(t, root) {
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.apply(src); err != nil {
			t.Error(err)
		}
	}

	spec := func(killers, old string) string {
		return "# a fault\nfile: f.go\npackages: ./p\nkillers:" + killers + "\n" +
			oldMarker + old + newMarker + "\tb()\n"
	}
	if _, err := parseMutant("no-killers", []byte(spec("", "\ta()\n"))); err == nil || !strings.Contains(err.Error(), "names no killers") {
		t.Errorf("a spec without killers parsed: %v", err)
	}
	m, err := parseMutant("ok", []byte(spec(" TestA TestB/case_one", "\ta()\n")))
	if err != nil {
		t.Fatal(err)
	}
	if m.old != "\ta()\n" || m.new != "\tb()\n" || m.runPattern() != "^(TestA|TestB)$" {
		t.Errorf("parsed %+v, run pattern %q", m, m.runPattern())
	}
	if got := killerPattern("TestB/case_one.5"); got != `^TestB$/^case_one\.5$` {
		t.Errorf("killer pattern = %q", got)
	}
	for _, src := range []string{"func f() {\n}\n", "func f() {\n\ta()\n\ta()\n}\n"} {
		if _, err := m.apply([]byte(src)); err == nil || !strings.Contains(err.Error(), "want exactly 1") {
			t.Errorf("apply to %q: %v, want an exactly-once error", src, err)
		}
	}
	if got, err := m.apply([]byte("func f() {\n\ta()\n}\n")); err != nil || string(got) != "func f() {\n\tb()\n}\n" {
		t.Errorf("apply = %q, %v", got, err)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestMutantsKilled builds each committed mutant from a copy in
// t.TempDir() through `go test -overlay` and passes it only when every
// killer prints `--- FAIL`. A mutant that does not build kills nothing.
// All killers run in one `go test`; one that panics ends its package's
// test binary and hides the killers after it, so a killer that did not
// fail there runs again alone before it counts as a survivor.
func TestMutantsKilled(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("builds and runs one test binary per mutant")
	}
	root := moduleRoot(t)
	for _, m := range loadMutants(t, root) {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			target := filepath.Join(root, m.file)
			src, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := m.apply(src)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			copyPath := filepath.Join(dir, filepath.Base(m.file))
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {target: copyPath}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(copyPath, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			goTest := func(pattern string) []byte {
				args := append([]string{"test", "-overlay", overlayPath, "-count=1", "-run", pattern}, m.packages...)
				cmd := exec.Command("go", args...)
				cmd.Dir = root
				out, _ := cmd.CombinedOutput() // a killed mutant exits nonzero
				return out
			}
			failed := func(out []byte, k string) bool { return bytes.Contains(out, []byte("--- FAIL: "+k+" (")) }
			all := goTest(m.runPattern())
			for _, k := range m.killers {
				if failed(all, k) {
					continue
				}
				if alone := goTest(killerPattern(k)); !failed(alone, k) {
					t.Errorf("%s does not fail under the mutant, with the other killers or alone:\n%s", k, alone)
				}
			}
		})
	}
}
