package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestRegistryComplete(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	all := reg.All()
	if len(all) != 19 {
		t.Fatalf("experiments = %d, want 19", len(all))
	}
	for _, e := range all {
		if !strings.HasPrefix(e.ID(), "E") {
			t.Fatalf("bad id %q", e.ID())
		}
		if e.Title() == "" || e.Claim() == "" {
			t.Fatalf("%s missing title or claim", e.ID())
		}
		if !strings.Contains(e.Claim(), "§") {
			t.Fatalf("%s claim does not cite a paper section: %q", e.ID(), e.Claim())
		}
	}
}

// TestAllExperimentsReproduce runs the whole suite at reduced scale and
// requires every shape check to pass — the repository's headline assertion.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	for _, e := range reg.All() {
		e := e
		t.Run(e.ID(), func(t *testing.T) {
			res, err := e.Run(core.Config{Seed: 1, Scale: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(res.Tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
		})
	}
}

// TestExperimentsDeterministic verifies equal seeds give identical tables.
func TestExperimentsDeterministic(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	for _, id := range []string{"E01", "E09", "E11", "E17"} {
		a, err := reg.Run(id, core.Config{Seed: 5, Scale: 0.2})
		if err != nil {
			t.Fatalf("%s run 1: %v", id, err)
		}
		b, err := reg.Run(id, core.Config{Seed: 5, Scale: 0.2})
		if err != nil {
			t.Fatalf("%s run 2: %v", id, err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s not deterministic for equal seeds", id)
		}
	}
}

// TestExperimentsScaleDown ensures the scale knob keeps experiments valid at
// benchmark-friendly sizes.
func TestExperimentsScaleDown(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	for _, id := range []string{"E01", "E06", "E11", "E17"} {
		res, err := reg.Run(id, core.Config{Seed: 2, Scale: 0.1})
		if err != nil {
			t.Fatalf("%s at scale 0.1: %v", id, err)
		}
		if len(res.Checks) == 0 {
			t.Fatalf("%s produced no checks at small scale", id)
		}
	}
}

// TestE03RecordsTransportTelemetry pins that E03's transport registers its
// instruments with the run's collector: its messages are counted sent and
// delivered and their delays land in the delivery histogram.
func TestE03RecordsTransportTelemetry(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	col := obs.NewCollector()
	if _, err := reg.Run("E03", core.Config{Seed: 1, Scale: 0.1, Obs: col}); err != nil {
		t.Fatalf("run: %v", err)
	}
	snap := col.Snapshot()
	totals := make(map[string]uint64)
	for _, c := range snap.Counters {
		totals[c.Name] = c.Total
	}
	if totals["net.msgs_sent"] == 0 || totals["net.msgs_delivered"] == 0 {
		t.Errorf("counters %v: want nonzero net.msgs_sent and net.msgs_delivered", totals)
	}
	var delays uint64
	for _, h := range snap.Hists {
		if h.Name == "net.delivery_delay_ns" {
			delays = h.Count
		}
	}
	if delays == 0 {
		t.Error("net.delivery_delay_ns recorded no delays")
	}
}
