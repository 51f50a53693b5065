package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// updateGolden rewrites the golden report baselines:
//
//	go test ./internal/report -run Golden -update
//
// Only do this for an intentional rendering change; the files are the
// byte-level contract that report generation is deterministic.
var updateGolden = flag.Bool("update", false, "rewrite golden report artifacts")

func registry(t *testing.T) *core.Registry {
	t.Helper()
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	return reg
}

func TestGenerateUnknownID(t *testing.T) {
	_, err := Generate(registry(t), Options{IDs: []string{"E99"}})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}

func TestGenerateDuplicateID(t *testing.T) {
	_, err := Generate(registry(t), Options{IDs: []string{"E01", "e01"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate id", err)
	}
}

// TestCanonical pins the one place scenario defaults are resolved: all
// ids when none are given, registry-case ids in a slice of its own, seeds
// 1..3, scale 1, and a canonical scenario resolving to itself.
func TestCanonical(t *testing.T) {
	reg := registry(t)
	ids := []string{"e11", "E01"}
	got, err := Canonical(reg, Options{IDs: ids, HTML: true})
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if !reflect.DeepEqual(got.IDs, []string{"E11", "E01"}) || !reflect.DeepEqual(got.Seeds, []int64{1, 2, 3}) || got.Scale != 1 || !got.HTML {
		t.Errorf("Canonical = %+v", got)
	}
	if ids[0] != "e11" {
		t.Errorf("Canonical rewrote the caller's ids: %v", ids)
	}
	again, err := Canonical(reg, got)
	if err != nil || !reflect.DeepEqual(again, got) {
		t.Errorf("Canonical is not idempotent: %+v, %v", again, err)
	}
	all, err := Canonical(reg, Options{Seeds: []int64{7}, Scale: 0.5})
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if len(all.IDs) != len(reg.All()) || all.IDs[0] != "E01" || !reflect.DeepEqual(all.Seeds, []int64{7}) || all.Scale != 0.5 {
		t.Errorf("Canonical defaults = %+v", all)
	}
}

// TestGenerateTreeShape checks the documented tree layout: REPORT.md, one
// page per experiment, figure SVGs for experiments that emit figures, and
// a manifest indexing everything else.
func TestGenerateTreeShape(t *testing.T) {
	tree, err := Generate(registry(t), Options{
		IDs:   []string{"E01", "E12"},
		Seeds: []int64{1, 2},
		Scale: 0.25,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, want := range []string{"REPORT.md", "experiments/E01.md", "experiments/E12.md", "manifest.json", "figures/E12-1.svg"} {
		if tree.Lookup(want) == nil {
			paths := make([]string, len(tree.Files))
			for i, f := range tree.Files {
				paths[i] = f.Path
			}
			t.Fatalf("missing %s in tree %v", want, paths)
		}
	}
	report := string(tree.Lookup("REPORT.md"))
	if !strings.Contains(report, "| §I |") || !strings.Contains(report, "[E01](experiments/E01.md)") {
		t.Errorf("REPORT.md matrix lacks the §I E01 row:\n%s", report)
	}
	page := string(tree.Lookup("experiments/E12.md"))
	if !strings.Contains(page, "../figures/E12-1.svg") {
		t.Errorf("E12 page does not reference its figure:\n%s", page)
	}
	svg := string(tree.Lookup("figures/E12-1.svg"))
	if !strings.HasPrefix(svg, "<svg ") || strings.Contains(svg, "NaN") {
		t.Errorf("E12 figure is not clean SVG")
	}
}

// TestGenerateDeterministicAcrossWorkers is the acceptance gate: the full
// registry renders byte-identically at worker counts 1 and 8.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry determinism check skipped in -short mode")
	}
	opts := Options{Seeds: []int64{1, 2}, Scale: 0.25}
	opts.Workers = 1
	a, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate workers=1: %v", err)
	}
	opts.Workers = 8
	b, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate workers=8: %v", err)
	}
	if len(a.Files) != len(b.Files) {
		t.Fatalf("tree sizes differ: %d vs %d files", len(a.Files), len(b.Files))
	}
	for i := range a.Files {
		if a.Files[i].Path != b.Files[i].Path {
			t.Fatalf("file %d path differs: %s vs %s", i, a.Files[i].Path, b.Files[i].Path)
		}
		if !bytes.Equal(a.Files[i].Data, b.Files[i].Data) {
			t.Errorf("%s differs between worker counts", a.Files[i].Path)
		}
	}
	// Every experiment gets a page and a matrix row.
	reg := registry(t)
	report := string(a.Lookup("REPORT.md"))
	for _, e := range reg.All() {
		if a.Lookup("experiments/"+e.ID()+".md") == nil {
			t.Errorf("missing page for %s", e.ID())
		}
		if !strings.Contains(report, "["+e.ID()+"](experiments/"+e.ID()+".md)") {
			t.Errorf("REPORT.md lacks a matrix row for %s", e.ID())
		}
	}
	// Figure-emitting experiments get an SVG.
	for _, id := range []string{"E04", "E08", "E09", "E12", "E15"} {
		if a.Lookup("figures/"+id+"-1.svg") == nil {
			t.Errorf("missing SVG figure for %s", id)
		}
	}
}

// TestManifestHashes recomputes every hash in manifest.json.
func TestManifestHashes(t *testing.T) {
	tree, err := Generate(registry(t), Options{
		IDs:   []string{"E01", "E11"},
		Seeds: []int64{1, 2},
		Scale: 0.25,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var man struct {
		Seeds []int64 `json:"seeds"`
		Scale float64 `json:"scale"`
		Files []struct {
			Path   string `json:"path"`
			SHA256 string `json:"sha256"`
			Bytes  int    `json:"bytes"`
		} `json:"files"`
	}
	if err := json.Unmarshal(tree.Lookup("manifest.json"), &man); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if man.Scale != 0.25 || len(man.Seeds) != 2 {
		t.Errorf("manifest config wrong: %+v", man)
	}
	if len(man.Files) != len(tree.Files)-1 {
		t.Errorf("manifest lists %d files, want %d (everything but itself)",
			len(man.Files), len(tree.Files)-1)
	}
	for _, mf := range man.Files {
		data := tree.Lookup(mf.Path)
		if data == nil {
			t.Errorf("manifest references missing file %s", mf.Path)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != mf.SHA256 {
			t.Errorf("%s hash mismatch: manifest %s, actual %s", mf.Path, mf.SHA256, got)
		}
		if mf.Bytes != len(data) {
			t.Errorf("%s size mismatch: manifest %d, actual %d", mf.Path, mf.Bytes, len(data))
		}
	}
}

func TestWriteDirRoundTrips(t *testing.T) {
	tree, err := Generate(registry(t), Options{
		IDs:   []string{"E11"},
		Seeds: []int64{1},
		Scale: 0.25,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := tree.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	for _, f := range tree.Files {
		got, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Path)))
		if err != nil {
			t.Fatalf("read back %s: %v", f.Path, err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Errorf("%s differs on disk", f.Path)
		}
	}
}

// TestGoldenReport pins REPORT.md and manifest.json bytes for a fixed
// configuration — the regression contract for report determinism across
// commits that do not intend to change rendering.
func TestGoldenReport(t *testing.T) {
	tree, err := Generate(registry(t), Options{
		IDs:   []string{"E01", "E12"},
		Seeds: []int64{1, 2, 3},
		Scale: 0.25,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, name := range []string{"REPORT.md", "manifest.json", "experiments/E12.md", "figures/E12-1.svg"} {
		data := tree.Lookup(name)
		if data == nil {
			t.Fatalf("missing %s", name)
		}
		path := filepath.Join("testdata", "golden", filepath.FromSlash(name))
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatalf("update golden: %v", err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s diverges from golden %s; run with -update only if the rendering change is intentional", name, path)
		}
	}
}
