package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestUnknownCommand(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"frobnicate"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
}

func TestNoCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("expected usage error")
	}
}

func TestRunRequiresIDs(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run"}, &out)
	if err == nil || !strings.Contains(err.Error(), "requires experiment ids") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunUnknownID(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "E99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepBadSeeds(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-seeds", "5..1", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepBadKnob(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-set", "nonsense", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "knob") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownKnobRejected(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-set", "e03.lokups=100", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown knob") || !strings.Contains(err.Error(), "e03.lookups") {
		t.Fatalf("err = %v", err)
	}
}

func TestInapplicableFlagsRejected(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct{ args []string }{
		{[]string{"run", "-seeds", "1..10", "E01"}},
		{[]string{"-seeds", "1..10", "run", "E01"}},
		{[]string{"run", "-n", "5", "E01"}},
		{[]string{"run", "-scales", "0.5,1", "E01"}},
		{[]string{"sweep", "-seed", "7", "E01"}},
		{[]string{"rep", "-seed", "7", "E01"}},
		{[]string{"run", "-sensitivity", "E01"}},
		{[]string{"sweep", "-sensitivity", "E01"}},
		{[]string{"rep", "-sensitivity", "E01"}},
		{[]string{"run", "-drift", "x.json", "E01"}},
		{[]string{"sweep", "-drift", "x.json", "E01"}},
		{[]string{"report", "-drift", "x.json", "E01"}},
	} {
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Fatalf("run(%v) err = %v, want inapplicable-flag error", tc.args, err)
		}
	}
}

func TestDuplicateIDsRejected(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-seeds", "1,2", "E03", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "duplicate experiment id") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateKnobFlagRejected(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-set", "e03.lookups=100", "-set", "e03.lookups=200", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "given twice") {
		t.Fatalf("err = %v", err)
	}
}

func TestListRejectsFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"list", "-json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "takes no flags") {
		t.Fatalf("err = %v", err)
	}
}

func TestKnobForUnselectedExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-seeds", "1,2", "-set", "e03.lookups=100,200", "E06"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not among the selected") {
		t.Fatalf("sweep err = %v", err)
	}
	err = run([]string{"run", "-set", "e03.lookups=100", "E06"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not among the selected") {
		t.Fatalf("run err = %v", err)
	}
}

func TestRunJSONCarriesErrorsInBand(t *testing.T) {
	var out bytes.Buffer
	// The knob error fails E03 before any simulation runs.
	runErr := run([]string{"run", "-json", "-set", "e03.nodes=50", "E03"}, &out)
	if runErr == nil {
		t.Fatal("expected the command to report the errored run")
	}
	var doc struct {
		Results []json.RawMessage `json:"results"`
		Errors  []struct {
			Experiment string `json:"experiment"`
			Error      string `json:"error"`
		} `json:"errors"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("run -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Results == nil || len(doc.Errors) != 1 || doc.Errors[0].Experiment != "E03" {
		t.Fatalf("errors not in-band: %+v", doc)
	}
	if !strings.Contains(doc.Errors[0].Error, "measurement floor") {
		t.Fatalf("error text = %q", doc.Errors[0].Error)
	}
}

func TestKnobAboveMaximumRejected(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-set", "e03.nodes=1e19", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "above the maximum") {
		t.Fatalf("err = %v", err)
	}
}

func TestIntegerKnobRejectsFraction(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-set", "e03.nodes=1500.4", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "must be an integer") {
		t.Fatalf("err = %v", err)
	}
}

func TestListRejectsArguments(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"list", "E99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "takes no arguments") {
		t.Fatalf("err = %v", err)
	}
}

func TestRepRejectsScalesAndMultiValueKnobs(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"rep", "-n", "3", "-scales", "0.25,0.5", "E06"}, &out)
	if err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("rep -scales err = %v", err)
	}
	err = run([]string{"rep", "-n", "3", "-set", "e03.lookups=100,200", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "sweep subcommand") {
		t.Fatalf("rep multi-knob err = %v", err)
	}
}

func TestRepConflictingSeedFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"rep", "-n", "20", "-seeds", "1..3", "E06"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-n and -seeds conflict") {
		t.Fatalf("err = %v", err)
	}
}

func TestScaleMustBePositive(t *testing.T) {
	var out bytes.Buffer
	for _, scale := range []string{"0", "-1", "NaN", "Inf"} {
		err := run([]string{"sweep", "-scale", scale, "-seeds", "1..3", "E06"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-scale must be a finite number > 0") {
			t.Fatalf("scale %s: err = %v", scale, err)
		}
	}
}

func TestKnobBelowMeasurementFloor(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-set", "e03.nodes=50", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "measurement floor") {
		t.Fatalf("err = %v", err)
	}
}

func TestKnobClampedByScaleRejected(t *testing.T) {
	var out bytes.Buffer
	// 250 passes the static floor but scales to 25 < 200.
	err := run([]string{"run", "-scale", "0.1", "-set", "e03.nodes=250", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "falls below the measurement floor") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunKnobNotAttachedToOtherExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	var out bytes.Buffer
	// The bad E03 knob must fail E03 only; E01 runs knob-free.
	err := run([]string{"run", "-scale", "0.1", "-set", "e03.nodes=50", "E03", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "E03:") {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(err.Error(), "E01:") {
		t.Fatalf("knob leaked into E01: %v", err)
	}
}

func TestScaleScalesConflict(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-scale", "0.5", "-scales", "0.25", "-seeds", "1,2", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-scale and -scales conflict") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsSeedBelowOne(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-seed", "0", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-seed must be >= 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestJSONAndCSVConflict(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-json", "-csv", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "choose one of -json or -csv") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsMultiValueKnob(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-set", "e03.lookups=100,200", "E03"}, &out)
	if err == nil || !strings.Contains(err.Error(), "sweep subcommand") {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepRejectsSeedZero(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-seeds", "0..4", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), ">= 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestRepRejectsZeroReplications(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"rep", "-n", "0", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-n must be") {
		t.Fatalf("err = %v", err)
	}
}

func TestRepRejectsHugeReplicationCount(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"rep", "-n", "2000000000", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "seed cap") {
		t.Fatalf("err = %v", err)
	}
}

func TestListIncludesAllExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out); err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, id := range []string{"E01", "E06", "E18"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("list output missing %s:\n%s", id, out.String())
		}
	}
}

func TestFlagsBeforeOrAfterSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	var a, b bytes.Buffer
	// Ignore shape-check outcomes at tiny scale; output equality is the point.
	errA := run([]string{"-scale", "0.1", "-seed", "3", "run", "E01"}, &a)
	errB := run([]string{"run", "-scale", "0.1", "-seed", "3", "E01"}, &b)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors differ: %v vs %v", errA, errB)
	}
	if a.String() != b.String() || a.Len() == 0 {
		t.Fatalf("flag position changed output:\n--- before\n%s\n--- after\n%s", a.String(), b.String())
	}
}

// TestSweepJSONDeterministicAcrossParallelism is the CLI half of the
// harness determinism contract.
func TestSweepJSONDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	sweepArgs := func(parallel string) []string {
		return []string{"sweep", "-parallel", parallel, "-json", "-seeds", "1..3", "-scale", "0.1", "E01"}
	}
	var seq, par bytes.Buffer
	if err := run(sweepArgs("1"), &seq); err != nil {
		t.Fatalf("sweep -parallel 1: %v", err)
	}
	if err := run(sweepArgs("8"), &par); err != nil {
		t.Fatalf("sweep -parallel 8: %v", err)
	}
	if seq.String() != par.String() {
		t.Fatal("sweep JSON differs between -parallel 1 and -parallel 8")
	}
	var report struct {
		Groups []struct {
			Experiment   string `json:"experiment"`
			Replications int    `json:"replications"`
			Metrics      []struct {
				Name string  `json:"name"`
				N    int     `json:"n"`
				Mean float64 `json:"mean"`
			} `json:"metrics"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(seq.Bytes(), &report); err != nil {
		t.Fatalf("sweep output is not valid JSON: %v", err)
	}
	if len(report.Groups) != 1 || report.Groups[0].Replications != 3 {
		t.Fatalf("unexpected report shape: %+v", report.Groups)
	}
	if len(report.Groups[0].Metrics) == 0 {
		t.Fatal("report has no aggregated metrics")
	}
}

func TestReportRejectsInapplicableFlags(t *testing.T) {
	for _, args := range [][]string{
		{"report", "-seed", "3", "E01"},
		{"report", "-n", "5", "E01"},
		{"report", "-scales", "0.5,1", "E01"},
		{"report", "-json", "E01"},
		{"report", "-csv", "E01"},
		{"report", "-set", "e01.exploration=0.5", "E01"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("run(%v) = %v, want inapplicable-flag error", args, err)
		}
	}
}

func TestGridPointsNeedsSensitivity(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"report", "-grid-points", "3", "E11"}, &out)
	if err == nil || !strings.Contains(err.Error(), "needs -sensitivity") {
		t.Fatalf("err = %v, want -grid-points gating", err)
	}
	err = run([]string{"report", "-sensitivity", "-grid-points", "0", "E11"}, &out)
	if err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Fatalf("err = %v, want positive grid-points", err)
	}
}

// TestReportSensitivityWritesPages drives `report -sensitivity` end to
// end on the cheap analytic E11: the tree gains per-knob figures and the
// page gains the sensitivity sections.
func TestReportSensitivityWritesPages(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"report", "-sensitivity", "-grid-points", "3", "-seeds", "1..2", "-out", dir, "E11"}, &out)
	if err != nil {
		t.Fatalf("report -sensitivity: %v\n%s", err, out.String())
	}
	page, err := os.ReadFile(filepath.Join(dir, "experiments", "E11.md"))
	if err != nil {
		t.Fatalf("read page: %v", err)
	}
	for _, want := range []string{"## Sensitivity", "### Verdict stability"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("page lacks %q", want)
		}
	}
	// e11.tps sweeps keep the headline metric's name stable, so that knob
	// gets the metric-vs-knob figure (e11.price embeds the swept price in
	// the metric name and renders an explanatory note instead).
	if _, err := os.Stat(filepath.Join(dir, "figures", "E11-sens-e11.tps-1.svg")); err != nil {
		t.Errorf("missing sensitivity figure: %v", err)
	}
}

// TestRepDriftWritesBounds checks `rep -drift` exports the headline
// metric's cross-seed statistics as the soak artifact.
func TestRepDriftWritesBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drift.json")
	var out bytes.Buffer
	if err := run([]string{"rep", "-n", "3", "-scale", "0.25", "-drift", path, "E11"}, &out); err != nil {
		t.Fatalf("rep -drift: %v\n%s", err, out.String())
	}
	var doc harness.Drift
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read drift: %v", err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("drift JSON: %v", err)
	}
	if doc.Seeds != 3 || len(doc.Drift) != 1 {
		t.Fatalf("drift doc = %+v, want 3 seeds and one E11 group", doc)
	}
	d := doc.Drift[0]
	if d.Experiment != "E11" || d.Metric == "" || d.N != 3 {
		t.Errorf("drift entry = %+v", d)
	}
}

func TestReportRejectsOutFlagOnOtherCommands(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-out", "x", "E01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-out does not apply") {
		t.Fatalf("err = %v, want -out rejection", err)
	}
}

func TestReportRequiresIDs(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"report"}, &out)
	if err == nil || !strings.Contains(err.Error(), "requires experiment ids") {
		t.Fatalf("err = %v", err)
	}
}

// TestReportWritesDeterministicTree generates a small report twice at
// different worker counts into fresh directories and requires identical
// bytes — the CLI-level version of the CI determinism gate.
func TestReportWritesDeterministicTree(t *testing.T) {
	dirA := t.TempDir()
	dirB := t.TempDir()
	var outA, outB bytes.Buffer
	argsFor := func(dir, parallel string) []string {
		return []string{"report", "-out", dir, "-seeds", "1..2", "-scale", "0.25", "-parallel", parallel, "E01", "E12"}
	}
	if err := run(argsFor(dirA, "1"), &outA); err != nil {
		t.Fatalf("report -parallel 1: %v", err)
	}
	if err := run(argsFor(dirB, "8"), &outB); err != nil {
		t.Fatalf("report -parallel 8: %v", err)
	}
	if !strings.Contains(outA.String(), "report: wrote") {
		t.Errorf("missing summary line: %q", outA.String())
	}
	normA := strings.ReplaceAll(outA.String(), dirA, "DIR")
	normB := strings.ReplaceAll(outB.String(), dirB, "DIR")
	if normA != normB {
		t.Errorf("summary lines differ: %q vs %q", normA, normB)
	}
	var paths []string
	root := os.DirFS(dirA)
	if err := fs.WalkDir(root, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			paths = append(paths, p)
		}
		return nil
	}); err != nil {
		t.Fatalf("walk: %v", err)
	}
	if len(paths) < 4 {
		t.Fatalf("report tree too small: %v", paths)
	}
	foundManifest := false
	for _, p := range paths {
		a, err := os.ReadFile(filepath.Join(dirA, p))
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, p))
		if err != nil {
			t.Fatalf("%s missing from -parallel 8 tree: %v", p, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between -parallel 1 and -parallel 8", p)
		}
		if p == "manifest.json" {
			foundManifest = true
		}
	}
	if !foundManifest {
		t.Error("report tree lacks manifest.json")
	}
}

// TestTraceWritesChromeTrace runs the trace subcommand end to end: a
// transport-driving experiment produces a valid Chrome trace-event
// document plus a telemetry summary on stdout, and identical invocations
// produce identical bytes.
func TestTraceWritesChromeTrace(t *testing.T) {
	pathA := filepath.Join(t.TempDir(), "a.json")
	pathB := filepath.Join(t.TempDir(), "b.json")
	var outA, outB bytes.Buffer
	if err := run([]string{"trace", "-scale", "0.25", "-out", pathA, "E02"}, &outA); err != nil {
		t.Fatalf("trace: %v\n%s", err, outA.String())
	}
	if err := run([]string{"trace", "-scale", "0.25", "-out", pathB, "E02"}, &outB); err != nil {
		t.Fatalf("trace rerun: %v", err)
	}
	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatalf("read trace rerun: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Error("trace bytes differ between identical invocations")
	}
	normA := strings.ReplaceAll(outA.String(), pathA, "OUT")
	normB := strings.ReplaceAll(outB.String(), pathB, "OUT")
	if normA != normB {
		t.Errorf("summaries differ:\n%s\n%s", normA, normB)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace doc shape wrong: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].PID != 1 {
		t.Errorf("trace events must use pid 1, got %d", doc.TraceEvents[0].PID)
	}
	for _, want := range []string{"trace: wrote", "kernel:", "counter net.msgs_sent", "histogram net.delivery_delay_ns"} {
		if !strings.Contains(outA.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, outA.String())
		}
	}
}

func TestTraceRequiresSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"trace", "E01", "E02"}, &out)
	if err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("err = %v, want exactly-one rejection", err)
	}
}

func TestTraceRejectsInapplicableFlags(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range [][]string{
		{"trace", "-seeds", "1..3", "E02"},
		{"trace", "-parallel", "4", "E02"},
		{"trace", "-json", "E02"},
		{"run", "-trace-limit", "10", "E01"},
		{"report", "-trace-limit", "10", "E01"},
		{"trace", "-resources", "E02"},
		{"run", "-resources", "E01"},
	} {
		if err := run(tc, &out); err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("%v: err = %v, want inapplicable-flag rejection", tc, err)
		}
	}
}

func TestTraceLimitCountsDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	var out bytes.Buffer
	if err := run([]string{"trace", "-scale", "0.25", "-trace-limit", "10", "-out", path, "E02"}, &out); err != nil {
		t.Fatalf("trace -trace-limit: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if len(doc.TraceEvents) != 10 {
		t.Errorf("trace has %d events, want the 10-event limit", len(doc.TraceEvents))
	}
	if !strings.Contains(out.String(), "dropped)") || strings.Contains(out.String(), "(10 events, 0 dropped)") {
		t.Errorf("summary should report nonzero drops:\n%s", out.String())
	}
}

// TestRepDriftIncludesHostRuns checks the soak artifact's host-resource
// rows: one per completed run, with positive wall time.
func TestRepDriftIncludesHostRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drift.json")
	var out bytes.Buffer
	if err := run([]string{"rep", "-n", "2", "-scale", "0.25", "-drift", path, "E11"}, &out); err != nil {
		t.Fatalf("rep -drift: %v", err)
	}
	var doc harness.Drift
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read drift: %v", err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("drift JSON: %v", err)
	}
	if len(doc.Runs) != 2 {
		t.Fatalf("drift has %d host runs, want 2: %+v", len(doc.Runs), doc.Runs)
	}
	for i, r := range doc.Runs {
		if r.Experiment != "E11" || r.Seed != int64(i+1) || r.WallNanos <= 0 {
			t.Errorf("host run %d = %+v", i, r)
		}
	}
}

// TestReportResourcesTree checks the CLI wiring of -resources: the tree
// gains Resources appendices and a volatile host.json, and -profile
// drops pprof files alongside.
func TestReportResourcesTree(t *testing.T) {
	dir := t.TempDir()
	profDir := filepath.Join(t.TempDir(), "profiles")
	var out bytes.Buffer
	args := []string{"report", "-resources", "-profile", profDir, "-out", dir,
		"-seeds", "1", "-scale", "0.25", "E02"}
	if err := run(args, &out); err != nil {
		t.Fatalf("report -resources: %v\n%s", err, out.String())
	}
	page, err := os.ReadFile(filepath.Join(dir, "experiments", "E02.md"))
	if err != nil {
		t.Fatalf("read page: %v", err)
	}
	if !bytes.Contains(page, []byte("## Resources")) {
		t.Error("page lacks the Resources appendix")
	}
	if _, err := os.Stat(filepath.Join(dir, "resources", "host.json")); err != nil {
		t.Errorf("missing host.json: %v", err)
	}
	for _, want := range []string{"E02-s1.cpu.pprof", "E02-s1.heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(profDir, want)); err != nil || fi.Size() == 0 {
			t.Errorf("missing or empty profile %s: %v", want, err)
		}
	}
}
