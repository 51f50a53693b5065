package harness

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// TestScenarioKeyMatchesGroups checks the exported key round-trips: a
// job built from (id, scale, params) aggregates into a group whose Key
// equals ScenarioKey of the same triple, for canonical and non-canonical
// id spellings alike.
func TestScenarioKeyMatchesGroups(t *testing.T) {
	params := map[string]float64{"e03.lookups": 100}
	j := Job{ExperimentID: "e03", Config: core.Config{Seed: 2, Scale: 0.5, Params: params}}
	g := Aggregate([]JobResult{{Job: j, Err: errors.New("boom")}}).Groups[0]
	if got, want := g.Key(), ScenarioKey("E03", 0.5, params); got != want {
		t.Errorf("Group.Key = %q, ScenarioKey = %q", got, want)
	}
	if got := ScenarioKey(j.ExperimentID, j.Config.Scale, j.Config.Params); got != g.Key() {
		t.Errorf("ScenarioKey of the job = %q, want %q", got, g.Key())
	}
}

// TestGroupKeyMatchesSprintf pins Group.Key's bytes to the format it had
// when it was built with fmt: "%s|%g|%s", including the scales %g spells
// in exponent form and the non-finite ones.
func TestGroupKeyMatchesSprintf(t *testing.T) {
	for _, scale := range []float64{0.1, 0.25, 1.0 / 3, 1e-7, 1e20, 1e21, math.Inf(1), math.NaN()} {
		g := Group{ExperimentID: "E03", Scale: scale, Params: "e03.lookups=100"}
		if got, want := g.Key(), fmt.Sprintf("%s|%g|%s", g.ExperimentID, g.Scale, g.Params); got != want {
			t.Errorf("scale %v: Key = %q, want %q", scale, got, want)
		}
	}
}

// TestHeadlinePrefersVaryingMetric pins the headline-selection rule the
// report and drift exports share: first varying metric, else the first
// metric, else none.
func TestHeadlinePrefersVaryingMetric(t *testing.T) {
	g := Group{Metrics: []MetricAgg{
		{Name: "constant", Mean: 1},
		{Name: "varying", Mean: 2, Std: 0.5},
	}}
	m, ok := g.Headline()
	if !ok || m.Name != "varying" {
		t.Errorf("Headline = %+v, %v; want the varying metric", m, ok)
	}

	g = Group{Metrics: []MetricAgg{{Name: "a"}, {Name: "b"}}}
	m, ok = g.Headline()
	if !ok || m.Name != "a" {
		t.Errorf("Headline = %+v, %v; want the first metric", m, ok)
	}

	if _, ok := (Group{}).Headline(); ok {
		t.Error("empty group should have no headline")
	}
}
