package report

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/harness"
)

// group is one scale-1 scenario of a sweep report: its majority verdict
// and a headline metric "m" with the given mean and bounds.
func group(id string, reproduced bool, mean, min, max float64) harness.Group {
	return harness.Group{
		ExperimentID: id, Scale: 1, Replications: 100, Reproduced: reproduced,
		Metrics: []harness.MetricAgg{{Name: "m", N: 100, Mean: mean, Std: 0.1, Min: min, Max: max}},
	}
}

// sweepJSON is the sweep report (`sweep -json`) holding groups.
func sweepJSON(t *testing.T, groups ...harness.Group) []byte {
	t.Helper()
	data, err := (&harness.Report{Groups: groups}).JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func TestDiffIdenticalManifests(t *testing.T) {
	r := sweepJSON(t, group("E01", true, 1.5, 1, 2), group("E02", false, 3, 2, 4))
	d, err := DiffDocs(r, r)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Failing() || len(d.Flips)+len(d.Breaches)+len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("identical sweep reports should produce an empty passing diff: %+v", d)
	}
	if got := d.Render(); got != "PASS: no changes\n" {
		t.Errorf("Render = %q", got)
	}
}

func TestDiffVerdictFlip(t *testing.T) {
	old := sweepJSON(t, group("E01", true, 1.5, 1, 2))
	now := sweepJSON(t, group("E01", false, 1.5, 1, 2))
	d, err := DiffDocs(old, now)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if !d.Failing() || len(d.Flips) != 1 || len(d.Breaches)+len(d.Added)+len(d.Removed) != 0 {
		t.Fatalf("want exactly one failing flip: %+v", d)
	}
	if f := d.Flips[0]; f != (ClaimChange{Scenario: "E01|1|", OldVerdict: "REPRODUCED", NewVerdict: "NOT REPRODUCED"}) {
		t.Errorf("flip record wrong: %+v", f)
	}
	want := "FLIP  E01|1|: REPRODUCED -> NOT REPRODUCED\nFAIL: 1 verdict flip(s), 0 envelope breach(es)\n"
	if got := d.Render(); got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
}

func TestDiffAddedRemoved(t *testing.T) {
	old := sweepJSON(t, group("E01", true, 1, 0, 2), group("E02", true, 1, 0, 2))
	now := sweepJSON(t, group("E01", true, 1, 0, 2), group("E03", false, 1, 0, 2))
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
	if !strings.HasSuffix(d.Render(), "PASS: no verdict flips or breaches (1 added, 1 removed)\n") {
		t.Errorf("Render = %q", d.Render())
	}
}

func TestDiffDriftWithinEnvelope(t *testing.T) {
	d, err := DiffDocs(sweepJSON(t, group("E01", true, 1.5, 1.0, 2.0)), sweepJSON(t, group("E01", true, 1.9, 1.7, 2.1)))
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Failing() || len(d.Breaches) != 0 {
		t.Errorf("in-envelope drift should pass: %+v", d)
	}
}

func TestDiffDriftBreach(t *testing.T) {
	d, err := DiffDocs(sweepJSON(t, group("E01", true, 1.5, 1.0, 2.0)), sweepJSON(t, group("E01", true, 2.5, 2.4, 2.6)))
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if !d.Failing() || len(d.Breaches) != 1 || len(d.Flips) != 0 {
		t.Fatalf("want one failing breach: %+v", d)
	}
	br := d.Breaches[0]
	if br.Scenario != "E01|1|" || br.Metric != "m" || br.NewMean != 2.5 || br.OldMin != 1.0 || br.OldMax != 2.0 {
		t.Errorf("breach record wrong: %+v", br)
	}
	if !strings.Contains(d.Render(), "BREACH") || !strings.Contains(d.Render(), "FAIL") {
		t.Errorf("Render = %q", d.Render())
	}

	// A headline the old group does not carry has no envelope to stay in.
	renamed := group("E01", true, 1.5, 1.0, 2.0)
	renamed.Metrics[0].Name = "m2"
	if d, _ := DiffDocs(sweepJSON(t, group("E01", true, 1.5, 1.0, 2.0)), sweepJSON(t, renamed)); len(d.Breaches) != 1 {
		t.Errorf("a new headline metric passed the envelope check: %+v", d)
	}
}

// TestDiffKindMismatch checks that the comparator refuses a report
// manifest on either side, naming the document it wants.
func TestDiffKindMismatch(t *testing.T) {
	man, err := json.Marshal(Manifest{Title: "t", Groups: 1, Claims: []ManifestClaim{{Scenario: "E01|1|", Verdict: "REPRODUCED"}}})
	if err != nil {
		t.Fatal(err)
	}
	sweep := sweepJSON(t, group("E01", true, 1, 0, 2))
	for _, pair := range [][2][]byte{{man, sweep}, {sweep, man}} {
		if _, err := DiffDocs(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "sweep -json") {
			t.Errorf("a manifest must be refused, got %v", err)
		}
	}
}

func TestDiffMalformed(t *testing.T) {
	if _, err := DiffDocs([]byte("{"), []byte("{}")); err == nil {
		t.Errorf("malformed old document must error")
	}
}

// TestDiffRealManifests runs the comparator end to end over two real
// sweep reports whose seed sets differ, checking scenario keys line up.
func TestDiffRealManifests(t *testing.T) {
	sweep := func(seeds []int64) []byte {
		jobs := harness.Sweep{Experiments: []string{"E01"}, Seeds: seeds, Scales: []float64{0.25}}.Jobs()
		results := (&harness.Runner{Registry: registry(t)}).Run(context.Background(), jobs)
		data, err := harness.Aggregate(results).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := sweep([]int64{1, 2}), sweep([]int64{2, 3})
	d, err := DiffDocs(a, b)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("same scenario should match across sweep reports: %+v", d)
	}
	if d2, _ := DiffDocs(a, a); d2.Failing() {
		t.Errorf("self-diff fails: %+v", d2)
	}
}
