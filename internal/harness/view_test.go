package harness

import "testing"

func TestAggregateViewRepresentativeIsLowestSeed(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"})
	s := Sweep{
		Experiments: []string{"X1"},
		Seeds:       []int64{3, 1, 2},
		Params:      map[string][]float64{"k": {10, 20}},
	}
	views := AggregateView(runAll(reg, s.Jobs(), 4))
	if len(views) != 2 {
		t.Fatalf("len(views) = %d, want one view per knob value", len(views))
	}
	for _, v := range views {
		if v.Representative == nil {
			t.Fatalf("group %s %s has no representative", v.ExperimentID, v.Params)
		}
		if v.RepresentativeSeed != 1 {
			t.Errorf("group %s representative seed = %d, want lowest seed 1",
				v.Params, v.RepresentativeSeed)
		}
	}
	// fakeExp's table cell is seed*k: the representative must really be
	// the seed-1 run, not whichever replication finished first.
	if views[0].Representative.Tables[0].Rows[0][1] != "10" {
		t.Errorf("k=10 representative cell = %q, want seed-1 value \"10\"",
			views[0].Representative.Tables[0].Rows[0][1])
	}
	if views[1].Representative.Tables[0].Rows[0][1] != "20" {
		t.Errorf("k=20 representative cell = %q, want seed-1 value \"20\"",
			views[1].Representative.Tables[0].Rows[0][1])
	}
}

func TestAggregateViewAllErrored(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1", errSeed: 5})
	s := Sweep{Experiments: []string{"X1"}, Seeds: []int64{5}}
	views := AggregateView(runAll(reg, s.Jobs(), 1))
	if len(views) != 1 {
		t.Fatalf("len(views) = %d, want 1", len(views))
	}
	if views[0].Representative != nil {
		t.Error("fully-errored group should have a nil representative")
	}
	if len(views[0].Errors) != 1 {
		t.Errorf("errors = %v, want the seed-5 failure", views[0].Errors)
	}
}

func TestAggregateViewSkipsErroredSeedForRepresentative(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1", errSeed: 1})
	s := Sweep{Experiments: []string{"X1"}, Seeds: []int64{1, 2, 3}}
	views := AggregateView(runAll(reg, s.Jobs(), 2))
	if views[0].Representative == nil || views[0].RepresentativeSeed != 2 {
		t.Fatalf("representative seed = %d, want 2 (lowest successful)",
			views[0].RepresentativeSeed)
	}
}

// TestAggregateViewDeterministic shuffles completion order via worker
// counts and requires identical views.
func TestAggregateViewDeterministic(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"}, &fakeExp{id: "X2"})
	s := Sweep{Experiments: []string{"X1", "X2"}, Seeds: []int64{1, 2, 3, 4, 5}}
	base := AggregateView(runAll(reg, s.Jobs(), 1))
	for _, workers := range []int{2, 8} {
		got := AggregateView(runAll(reg, s.Jobs(), workers))
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d views, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i].RepresentativeSeed != base[i].RepresentativeSeed {
				t.Errorf("workers=%d view %d: representative seed %d != %d",
					workers, i, got[i].RepresentativeSeed, base[i].RepresentativeSeed)
			}
		}
	}
}
