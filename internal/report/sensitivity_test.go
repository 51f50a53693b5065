package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
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

// knobSection returns one knob's part of an experiment page: from its
// "### `knob`" heading to the next heading of that level.
func knobSection(t *testing.T, page, knob string) string {
	t.Helper()
	_, rest, ok := strings.Cut(page, "### `"+knob+"`\n")
	if !ok {
		t.Fatalf("page has no section for %s:\n%s", knob, page)
	}
	if i := strings.Index(rest, "\n### "); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TestSensitivityCustomSinglePointGrid drives the layer with one-point
// grids: every knob is swept at its floor only, so e11.tps renders the
// single grid row 0.1 beside its baseline, and gets its figure.
func TestSensitivityCustomSinglePointGrid(t *testing.T) {
	opts := sensOpts()
	opts.GridPoints = 1
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sec := knobSection(t, string(tree.Lookup("experiments/E11.md")), "e11.tps")
	if !strings.Contains(sec, "| 0.1 |") || !strings.Contains(sec, "| 4 (baseline) |") {
		t.Errorf("single-point grid row missing:\n%s", sec)
	}
	if rows := strings.Count(sec, "\n| ") - 1; rows != 2 {
		t.Errorf("e11.tps table has %d rows, want the grid point and the baseline:\n%s", rows, sec)
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
		GridPoints:  2,
	}
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sec := knobSection(t, string(tree.Lookup("experiments/E16.md")), "e16.endorsers")
	for _, want := range []string{"| 1 |", "| 3 |", "| 2 (baseline) |"} {
		if !strings.Contains(sec, want) {
			t.Errorf("categorical sweep lacks %q:\n%s", want, sec)
		}
	}
}

// TestSensitivityNoSharedMetricNote pins the degenerate-figure guard: a
// grid whose views share no metric name with the baseline (E11's table
// rows are keyed by the swept price, here its floor 100) renders an
// explanatory note, never a baseline-only plot.
func TestSensitivityNoSharedMetricNote(t *testing.T) {
	opts := sensOpts()
	opts.GridPoints = 1
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sec := knobSection(t, string(tree.Lookup("experiments/E11.md")), "e11.price")
	if !strings.Contains(sec, "| 100 |") || !strings.Contains(sec, "series across this knob's grid") {
		t.Errorf("e11.price section lacks the grid row or the no-shared-metric note:\n%s", sec)
	}
	for _, f := range tree.Files {
		if strings.Contains(f.Path, "-sens-e11.price") {
			t.Errorf("no e11.price figure should be emitted, got %s", f.Path)
		}
	}
}

// knobRefusingExp runs the wrapped experiment only without knobs: every
// sensitivity grid run errors while the baseline completes.
type knobRefusingExp struct{ core.Experiment }

func (e knobRefusingExp) Run(cfg core.Config) (*core.Result, error) {
	if len(cfg.Params) > 0 {
		return nil, fmt.Errorf("%s: knobs refused", e.ID())
	}
	return e.Experiment.Run(cfg)
}

// recordingExp records the config of every run of the wrapped
// experiment; runs may come from several workers at once.
type recordingExp struct {
	core.Experiment
	mu   *sync.Mutex
	cfgs *[]core.Config
}

func newRecordingExp(e core.Experiment) recordingExp {
	return recordingExp{Experiment: e, mu: new(sync.Mutex), cfgs: new([]core.Config)}
}

func (e recordingExp) Run(cfg core.Config) (*core.Result, error) {
	e.mu.Lock()
	*e.cfgs = append(*e.cfgs, cfg)
	e.mu.Unlock()
	return e.Experiment.Run(cfg)
}

// TestSensitivityGridCarriesPins checks that a pinned scenario's grid
// points differ from its baseline in the swept knob only: every e11.tps
// grid run carries the pinned e11.price, and the e11.price table's
// baseline row sits at the pinned value, not at the spec default.
func TestSensitivityGridCarriesPins(t *testing.T) {
	e11, err := registry(t).Get("E11")
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecordingExp(e11)
	reg, err := core.NewRegistry(rec)
	if err != nil {
		t.Fatal(err)
	}
	opts := sensOpts()
	opts.GridPoints = 2
	opts.Params = map[string]float64{"e11.price": 5000}
	tree, err := Generate(reg, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	tpsRuns := 0
	for _, cfg := range *rec.cfgs {
		if _, ok := cfg.Params["e11.tps"]; !ok {
			continue
		}
		tpsRuns++
		if got, ok := cfg.Params["e11.price"]; !ok || got != 5000 {
			t.Errorf("e11.tps grid run %v lost the pin e11.price=5000", cfg.Params)
		}
	}
	if tpsRuns == 0 {
		t.Fatal("no e11.tps grid run recorded")
	}
	sec := knobSection(t, string(tree.Lookup("experiments/E11.md")), "e11.price")
	if !strings.Contains(sec, "| 5000 (baseline) |") {
		t.Errorf("e11.price baseline row should sit at the pinned 5000:\n%s", sec)
	}
}

// TestSensitivityAllErrored pins the zero-evidence rendering: a sweep
// whose every grid replication errors must say so on the page and show
// ERROR in the matrix — never "stable".
func TestSensitivityAllErrored(t *testing.T) {
	e11, err := registry(t).Get("E11")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := core.NewRegistry(knobRefusingExp{e11})
	if err != nil {
		t.Fatal(err)
	}
	opts := sensOpts()
	opts.GridPoints = 1
	tree, err := Generate(reg, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tree.RunErrors == 0 {
		t.Fatal("knob-refusing grid runs should produce run errors")
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
	sens := &sensitivity{exps: map[string]*expSens{
		"E11": {grids: []knobGrid{{knob: "e11.tps", spec: experiments.KnobSpec{Default: 4}, base: 4}}},
	}}
	baseline := harness.GroupView{Group: harness.Group{Seeds: []int64{1}, Replications: 1, Errors: []string{"seed 1: boom"}}}
	sens.bind([]core.Experiment{e}, []harness.GroupView{baseline}, nil)
	page, _ := renderSensitivitySection(e, baseline, sens, Options{Seeds: []int64{1}, Scale: 1})
	if !strings.Contains(page, "| 4 (baseline) | — | ERROR |") {
		t.Errorf("errored baseline row should read ERROR:\n%s", page)
	}
}

// stubExp answers every run with an empty result, so generation of an
// expensive experiment can be driven without simulating it.
type stubExp struct{ core.Experiment }

func (e stubExp) Run(core.Config) (*core.Result, error) {
	return &core.Result{ID: e.ID(), Title: e.Title()}, nil
}

// TestSensitivityGridScenariosRunOnce pins that grid points naming one
// scenario run it once. With E08 pinned at e08.loss=0.125 and e08.mix=2,
// the e08.loss grid point 0.125 (its e08.mix=1 companion overridden by the
// pin) and the e08.mix grid point 2 both name the pinned assignment: 19
// grid points, 18 scenarios, and no scenario aggregating a seed twice.
func TestSensitivityGridScenariosRunOnce(t *testing.T) {
	e08, err := registry(t).Get("E08")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := core.NewRegistry(stubExp{e08})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := Check(reg, Options{
		IDs:         []string{"E08"},
		Seeds:       []int64{1, 2},
		Scale:       0.25,
		Params:      map[string]float64{"e08.loss": 0.125, "e08.mix": 2},
		Sensitivity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for name, grid := range experiments.SensitivityGrids(opts.GridPoints, opts.Scale) {
		if harness.KnobAppliesTo(name, "E08") {
			points += len(grid)
		}
	}
	if points != 19 {
		t.Fatalf("E08 has %d grid points at scale 0.25, want 19", points)
	}

	_, jobs := buildSensitivity([]core.Experiment{e08}, opts)
	perKey := make(map[string]int)
	for _, j := range jobs {
		perKey[harness.ScenarioKey(j.ExperimentID, j.Config.Scale, j.Config.Params)]++
	}
	for key, n := range perKey {
		if n != len(opts.Seeds) {
			t.Errorf("scenario %s expands into %d jobs, want one per seed (%d)", key, n, len(opts.Seeds))
		}
	}
	if len(perKey) != 18 {
		t.Errorf("grid expands into %d scenarios, want 18", len(perKey))
	}

	tree, err := Generate(reg, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var man Manifest
	if err := json.Unmarshal(tree.Lookup("manifest.json"), &man); err != nil {
		t.Fatal(err)
	}
	if man.Sensitivity == nil || man.Sensitivity.Scenarios != 18 {
		t.Errorf("manifest sensitivity = %+v, want 18 scenarios", man.Sensitivity)
	}
}
