package report

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/harness"
)

func manifestJSON(t *testing.T, claims []ManifestClaim) []byte {
	t.Helper()
	data, err := json.Marshal(Manifest{
		Title:  "t",
		Claims: claims,
		Files:  []ManifestFile{{Path: "REPORT.md"}},
	})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func TestDiffIdenticalManifests(t *testing.T) {
	m := manifestJSON(t, []ManifestClaim{
		{Scenario: "E01|1|", Verdict: "REPRODUCED", Metric: "m", Mean: 1.5},
	})
	d, err := DiffDocs(m, m)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Failing() || len(d.Flips)+len(d.Drifts)+len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("identical manifests should produce an empty passing diff: %+v", d)
	}
	if !strings.Contains(d.Render(), "PASS: no changes") {
		t.Errorf("Render = %q", d.Render())
	}
}

func TestDiffVerdictFlip(t *testing.T) {
	old := manifestJSON(t, []ManifestClaim{
		{Scenario: "E01|1|", Title: "c", Verdict: "REPRODUCED", Metric: "m", Mean: 1.5},
	})
	now := manifestJSON(t, []ManifestClaim{
		{Scenario: "E01|1|", Title: "c", Verdict: "NOT REPRODUCED", Metric: "m", Mean: 2.5},
	})
	d, err := DiffDocs(old, now)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if !d.Failing() || len(d.Flips) != 1 || len(d.Drifts) != 0 {
		t.Fatalf("want exactly one failing flip: %+v", d)
	}
	f := d.Flips[0]
	if f.OldVerdict != "REPRODUCED" || f.NewVerdict != "NOT REPRODUCED" || !f.Flipped() {
		t.Errorf("flip record wrong: %+v", f)
	}
	out := d.Render()
	if !strings.Contains(out, "FLIP") || !strings.Contains(out, "FAIL: 1 verdict flip") {
		t.Errorf("Render = %q", out)
	}
}

func TestDiffMetricOnlyDrift(t *testing.T) {
	old := manifestJSON(t, []ManifestClaim{
		{Scenario: "E01|1|", Verdict: "REPRODUCED", Metric: "m", Mean: 1.5},
	})
	now := manifestJSON(t, []ManifestClaim{
		{Scenario: "E01|1|", Verdict: "REPRODUCED", Metric: "m", Mean: 1.75},
	})
	d, err := DiffDocs(old, now)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Failing() {
		t.Errorf("metric-only drift must not fail the gate: %+v", d)
	}
	if len(d.Drifts) != 1 || d.Drifts[0].OldMean != 1.5 || d.Drifts[0].NewMean != 1.75 {
		t.Errorf("drift record wrong: %+v", d.Drifts)
	}
	if !strings.Contains(d.Render(), "DRIFT") || !strings.Contains(d.Render(), "PASS") {
		t.Errorf("Render = %q", d.Render())
	}
}

func TestDiffAddedRemoved(t *testing.T) {
	old := manifestJSON(t, []ManifestClaim{
		{Scenario: "E01|1|", Verdict: "REPRODUCED"},
		{Scenario: "E02|1|", Verdict: "REPRODUCED"},
	})
	now := manifestJSON(t, []ManifestClaim{
		{Scenario: "E01|1|", Verdict: "REPRODUCED"},
		{Scenario: "E03|1|", Verdict: "NOT REPRODUCED"},
	})
	d, err := DiffDocs(old, now)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Failing() {
		t.Errorf("scenario set changes must not fail the gate: %+v", d)
	}
	if len(d.Added) != 1 || d.Added[0] != "E03|1|" || len(d.Removed) != 1 || d.Removed[0] != "E02|1|" {
		t.Errorf("added/removed wrong: %+v / %+v", d.Added, d.Removed)
	}
}

// sweepJSON is a one-group sweep report (`sweep -json`) whose headline
// metric has the given mean and bounds.
func sweepJSON(mean, min, max float64) []byte {
	data, _ := (&harness.Report{Groups: []harness.Group{{
		ExperimentID: "E01", Scale: 1, Replications: 100,
		Metrics: []harness.MetricAgg{{Name: "m", N: 100, Mean: mean, Std: 0.1, Min: min, Max: max}},
	}}}).JSON()
	return data
}

func TestDiffDriftWithinEnvelope(t *testing.T) {
	d, err := DiffDocs(sweepJSON(1.5, 1.0, 2.0), sweepJSON(1.9, 1.7, 2.1))
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Kind != "sweep" || d.Failing() || len(d.Breaches) != 0 {
		t.Errorf("in-envelope drift should pass: %+v", d)
	}
}

func TestDiffDriftBreach(t *testing.T) {
	d, err := DiffDocs(sweepJSON(1.5, 1.0, 2.0), sweepJSON(2.5, 2.4, 2.6))
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if !d.Failing() || len(d.Breaches) != 1 {
		t.Fatalf("want one failing breach: %+v", d)
	}
	br := d.Breaches[0]
	if br.NewMean != 2.5 || br.OldMin != 1.0 || br.OldMax != 2.0 {
		t.Errorf("breach record wrong: %+v", br)
	}
	if !strings.Contains(d.Render(), "BREACH") || !strings.Contains(d.Render(), "FAIL") {
		t.Errorf("Render = %q", d.Render())
	}
}

func TestDiffKindMismatch(t *testing.T) {
	man := manifestJSON(t, nil)
	if _, err := DiffDocs(man, sweepJSON(1, 0, 2)); err == nil ||
		!strings.Contains(err.Error(), "kinds differ") {
		t.Errorf("mixed document kinds must error, got %v", err)
	}
}

func TestDiffMalformed(t *testing.T) {
	if _, err := DiffDocs([]byte("{"), []byte("{}")); err == nil {
		t.Errorf("malformed old document must error")
	}
}

// TestDiffRealManifests runs the comparator end to end over two
// generated manifests whose options differ only by seed set, checking
// scenario keys line up.
func TestDiffRealManifests(t *testing.T) {
	gen := func(seeds []int64) []byte {
		tree, err := Generate(registry(t), Options{IDs: []string{"E01"}, Seeds: seeds, Scale: 0.25})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return tree.Lookup("manifest.json")
	}
	a, b := gen([]int64{1, 2}), gen([]int64{2, 3})
	d, err := DiffDocs(a, b)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Kind != "manifest" {
		t.Errorf("Kind = %q", d.Kind)
	}
	if len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("same scenario should match across manifests: %+v", d)
	}
	if d2, _ := DiffDocs(a, a); d2.Failing() {
		t.Errorf("self-diff fails: %+v", d2)
	}
}
