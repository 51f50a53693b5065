package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunContextCancelled pins the cancellation contract: once the
// context is done, unstarted jobs complete immediately with the context
// error, and the result slice still has one entry per job so aggregation
// stays well formed.
func TestRunContextCancelled(t *testing.T) {
	reg, _ := core.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{
		{ExperimentID: "E01", Config: core.Config{Seed: 1, Scale: 1}},
		{ExperimentID: "E01", Config: core.Config{Seed: 2, Scale: 1}},
	}
	r := Runner{Registry: reg, Workers: 2}
	out := r.Run(ctx, jobs)
	if len(out) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out), len(jobs))
	}
	for i, jr := range out {
		if jr.Err == nil || !strings.Contains(jr.Err.Error(), "cancelled") {
			t.Errorf("job %d: err = %v, want cancellation", i, jr.Err)
		}
		if jr.Job.Config.Seed != jobs[i].Config.Seed {
			t.Errorf("job %d: result out of order", i)
		}
	}
	// Cancelled runs aggregate as errored replications, not a panic.
	rep := Aggregate(out)
	errs := 0
	for _, g := range rep.Groups {
		errs += len(g.Errors)
	}
	if errs != len(jobs) {
		t.Errorf("aggregate holds %d errors, want %d", errs, len(jobs))
	}
}
