package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// sensOpts is the cheap fixed configuration the sensitivity tests share:
// E11 is analytic (no simulation loop), so its full default grid runs in
// milliseconds.
func sensOpts() Options {
	return Options{
		IDs:         []string{"E11"},
		Seeds:       []int64{1, 2},
		Scale:       1,
		Sensitivity: true,
	}
}

// TestSensitivityTreeShape checks the sensitivity layer's documented
// artifacts: per-knob figures, the page's Sensitivity and Verdict
// stability sections, the matrix stability column, and the manifest's
// sensitivity summary.
func TestSensitivityTreeShape(t *testing.T) {
	tree, err := Generate(registry(t), sensOpts())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tree.Lookup("figures/E11-sens-e11.tps-1.svg") == nil {
		paths := make([]string, len(tree.Files))
		for i, f := range tree.Files {
			paths[i] = f.Path
		}
		t.Fatalf("missing figures/E11-sens-e11.tps-1.svg in tree %v", paths)
	}
	// The tps figure must plot the metric the knob actually moves (kWh
	// per transaction), not the tps-independent network-power column that
	// happens to sort first.
	if svg := string(tree.Lookup("figures/E11-sens-e11.tps-1.svg")); !strings.Contains(svg, "kWh per transaction") {
		t.Error("e11.tps figure should plot the knob-responsive metric")
	}
	page := string(tree.Lookup("experiments/E11.md"))
	for _, want := range []string{
		"## Sensitivity",
		"### `e11.price`",
		"### `e11.tps`",
		"### Verdict stability",
		"(baseline)",
		"../figures/E11-sens-e11.tps-1.svg",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("E11 page lacks %q:\n%s", want, page)
		}
	}
	report := string(tree.Lookup("REPORT.md"))
	if !strings.Contains(report, "| Stability |") {
		t.Errorf("REPORT.md matrix lacks the Stability column:\n%s", report)
	}
	man := string(tree.Lookup("manifest.json"))
	for _, want := range []string{`"sensitivity"`, `"grid_points": 5`, `"e11.price"`} {
		if !strings.Contains(man, want) {
			t.Errorf("manifest lacks %s:\n%s", want, man)
		}
	}
	svg := string(tree.Lookup("figures/E11-sens-e11.tps-1.svg"))
	if !strings.HasPrefix(svg, "<svg ") || strings.Contains(svg, "NaN") {
		t.Error("sensitivity figure is not clean SVG")
	}
	if !strings.Contains(svg, "<polygon") {
		t.Error("sensitivity figure lacks the ±CI band polygon")
	}
}

// TestSensitivityOffUnchanged pins that a sensitivity-free generation
// emits no sensitivity artifacts — the existing golden trees stay the
// byte-level contract.
func TestSensitivityOffUnchanged(t *testing.T) {
	opts := sensOpts()
	opts.Sensitivity = false
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, f := range tree.Files {
		if strings.Contains(f.Path, "-sens-") {
			t.Errorf("sensitivity figure %s generated without Sensitivity", f.Path)
		}
	}
	if strings.Contains(string(tree.Lookup("experiments/E11.md")), "## Sensitivity") {
		t.Error("page has a Sensitivity section without Sensitivity")
	}
	if strings.Contains(string(tree.Lookup("REPORT.md")), "| Stability |") {
		t.Error("matrix has a Stability column without Sensitivity")
	}
	if strings.Contains(string(tree.Lookup("manifest.json")), `"sensitivity"`) {
		t.Error("manifest has a sensitivity block without Sensitivity")
	}
}

// TestSensitivityDeterministicAcrossWorkers is the acceptance gate for
// the new pages: equal options render byte-identical sensitivity trees
// at worker counts 1 and 8.
func TestSensitivityDeterministicAcrossWorkers(t *testing.T) {
	opts := sensOpts()
	opts.IDs = []string{"E11", "E16"}
	opts.Scale = 0.25
	opts.GridPoints = 3
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
}

// TestSensitivityCustomSinglePointGrid drives the layer with an explicit
// one-value grid at the knob's floor: only that knob is swept, its
// single point renders, and the other registered knob is absent.
func TestSensitivityCustomSinglePointGrid(t *testing.T) {
	opts := sensOpts()
	opts.Grids = map[string][]float64{"e11.tps": {0.1}}
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	page := string(tree.Lookup("experiments/E11.md"))
	if !strings.Contains(page, "### `e11.tps`") || !strings.Contains(page, "| 0.1 |") {
		t.Errorf("single-point grid row missing:\n%s", page)
	}
	if strings.Contains(page, "### `e11.price`") {
		t.Error("custom grid should not sweep e11.price")
	}
	if tree.Lookup("figures/E11-sens-e11.tps-1.svg") == nil {
		t.Error("missing the single-point figure")
	}
}

// TestSensitivityCategoricalKnob sweeps E16's selector knob
// e16.endorsers (domain 1..3): the grid enumerates the non-default
// values and both rows land in the verdict table.
func TestSensitivityCategoricalKnob(t *testing.T) {
	opts := Options{
		IDs:         []string{"E16"},
		Seeds:       []int64{1, 2},
		Scale:       0.25,
		Sensitivity: true,
		Grids:       map[string][]float64{"e16.endorsers": {1, 3}},
	}
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	page := string(tree.Lookup("experiments/E16.md"))
	for _, want := range []string{"### `e16.endorsers`", "| 1 |", "| 3 |", "| 2 (baseline) |"} {
		if !strings.Contains(page, want) {
			t.Errorf("categorical sweep lacks %q:\n%s", want, page)
		}
	}
}

// TestSensitivityDuplicateGridValues checks duplicate values collapse to
// one scenario instead of double-counting seeds.
func TestSensitivityDuplicateGridValues(t *testing.T) {
	opts := sensOpts()
	opts.Grids = map[string][]float64{"e11.tps": {0.1, 0.1, 8}}
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	page := string(tree.Lookup("experiments/E11.md"))
	if got := strings.Count(page, "| 0.1 |"); got != 1 {
		t.Errorf("duplicate grid value rendered %d rows, want 1:\n%s", got, page)
	}
	if !strings.Contains(string(tree.Lookup("manifest.json")), `"scenarios": 2`) {
		t.Error("manifest should count 2 deduplicated scenarios")
	}
}

// TestSensitivityNoSharedMetricNote pins the degenerate-figure guard: a
// grid whose views share no metric name with the baseline (E11's table
// rows are keyed by the swept price) renders an explanatory note, never
// a baseline-only plot.
func TestSensitivityNoSharedMetricNote(t *testing.T) {
	opts := sensOpts()
	opts.Grids = map[string][]float64{"e11.price": {100}}
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	page := string(tree.Lookup("experiments/E11.md"))
	if !strings.Contains(page, "series across this knob's grid") {
		t.Errorf("page lacks the no-shared-metric note:\n%s", page)
	}
	for _, f := range tree.Files {
		if strings.Contains(f.Path, "-sens-") {
			t.Errorf("no figure should be emitted, got %s", f.Path)
		}
	}
}

// TestSensitivityAllErrored pins the zero-evidence rendering: a grid
// whose every replication errors (value below the knob floor) must say
// so on the page and show ERROR in the matrix — never "stable".
func TestSensitivityAllErrored(t *testing.T) {
	opts := sensOpts()
	opts.Grids = map[string][]float64{"e11.tps": {0.01}} // floor is 0.1
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tree.RunErrors == 0 {
		t.Fatal("below-floor grid value should produce run errors")
	}
	page := string(tree.Lookup("experiments/E11.md"))
	if !strings.Contains(page, "no completed grid runs") {
		t.Errorf("page should report zero completed grid runs:\n%s", page)
	}
	if strings.Contains(page, "**Stability: stable**") {
		t.Error("zero evidence must not render as stable")
	}
	report := string(tree.Lookup("REPORT.md"))
	if !strings.Contains(report, "| ERROR |") {
		t.Error("matrix stability cell should be ERROR")
	}
	// The summary must count the broken sweep, not silently drop it.
	if !strings.Contains(report, "sweep errored: E11") {
		t.Errorf("summary should name the errored sweep:\n%s", report)
	}
}

// TestGoldenSensitivityReport pins the sensitivity rendering bytes for a
// fixed configuration — the regression contract that the new pages stay
// deterministic across commits that do not intend to change them.
func TestGoldenSensitivityReport(t *testing.T) {
	tree, err := Generate(registry(t), sensOpts())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, name := range []string{"REPORT.md", "manifest.json", "experiments/E11.md", "figures/E11-sens-e11.tps-1.svg"} {
		data := tree.Lookup(name)
		if data == nil {
			t.Fatalf("missing %s", name)
		}
		path := filepath.Join("testdata", "golden_sens", filepath.FromSlash(name))
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

// TestSensitivityBaselineAllErrored pins the baseline row of a knob's
// verdict table to the grid rows' vocabulary: a baseline with no completed
// runs reads ERROR, not "0/0 NOT REPRODUCED".
func TestSensitivityBaselineAllErrored(t *testing.T) {
	e, _ := registry(t).Get("E11")
	sens := &sensitivity{
		knobs:     map[string][]string{"E11": {"e11.tps"}},
		defaults:  map[string]float64{"e11.tps": 4},
		stability: map[string]*expStability{},
	}
	baseline := &harness.GroupView{Group: harness.Group{Seeds: []int64{1}, Replications: 1, Errors: []string{"seed 1: boom"}}}
	page, _ := renderSensitivitySection(e, baseline, sens, genContext{seeds: []int64{1}, scale: 1})
	if !strings.Contains(page, "| 4 (baseline) | — | ERROR |") {
		t.Errorf("errored baseline row should read ERROR:\n%s", page)
	}
}
