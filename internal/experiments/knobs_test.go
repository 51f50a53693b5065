package experiments

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// sortedKnobNames returns every registered knob name in deterministic order.
func sortedKnobNames(t *testing.T) []string {
	t.Helper()
	specs := KnobSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestKnobSpecsWellFormed checks the registry's internal consistency: every
// knob names a real experiment, its default sits inside [Min, Max], integer
// knobs have whole defaults, and the description leads with the owner id.
func TestKnobSpecsWellFormed(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	specs := KnobSpecs()
	for _, name := range sortedKnobNames(t) {
		s := specs[name]
		owner := core.KnobOwner(name)
		if owner == "" {
			t.Errorf("knob %s has no experiment prefix", name)
			continue
		}
		if _, err := reg.Get(owner); err != nil {
			t.Errorf("knob %s names unknown experiment %s", name, owner)
		}
		if s.Desc == "" || !strings.HasPrefix(s.Desc, owner+":") {
			t.Errorf("knob %s description %q should start with %q", name, s.Desc, owner+":")
		}
		if s.Max <= s.Min {
			t.Errorf("knob %s has Max %g <= Min %g", name, s.Max, s.Min)
		}
		if s.Default < s.Min || s.Default > s.Max {
			t.Errorf("knob %s default %g outside [%g, %g]", name, s.Default, s.Min, s.Max)
		}
		if s.Integer && s.Default != math.Trunc(s.Default) {
			t.Errorf("integer knob %s has fractional default %g", name, s.Default)
		}
	}
}

// TestEveryExperimentHasKnobs is the sweepability criterion: each of
// E01–E19 must register at least one knob.
func TestEveryExperimentHasKnobs(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	owned := make(map[string]int)
	for _, name := range sortedKnobNames(t) {
		owned[core.KnobOwner(name)]++
	}
	for _, e := range reg.All() {
		if owned[e.ID()] == 0 {
			t.Errorf("%s has no registered knobs; every experiment must be sweepable", e.ID())
		}
	}
}

// TestKnobFloorRejected runs each knob's owner with a value just below the
// spec floor and requires a run error — floors reject rather than clamp
// explicit values, so a sweep cannot silently collapse grid points.
func TestKnobFloorRejected(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	specs := KnobSpecs()
	for _, name := range sortedKnobNames(t) {
		s := specs[name]
		below := s.Min - 1
		if !s.Integer {
			below = s.Min - math.Max(s.Min/2, 0.125)
		}
		_, err := reg.Run(core.KnobOwner(name), core.Config{
			Seed: 1, Scale: 1, Params: map[string]float64{name: below},
		})
		if err == nil || !strings.Contains(err.Error(), "below the measurement floor") {
			t.Errorf("%s=%g: error = %v, want measurement-floor rejection", name, below, err)
		}
	}
}

// TestKnobMaxRejected runs each knob's owner with a value just above the
// spec maximum and requires a run error; a non-finite value (NaN compares
// false against both bounds) must be refused as such.
func TestKnobMaxRejected(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	specs := KnobSpecs()
	for _, name := range sortedKnobNames(t) {
		s := specs[name]
		_, err := reg.Run(core.KnobOwner(name), core.Config{
			Seed: 1, Scale: 1, Params: map[string]float64{name: s.Max + 1},
		})
		if err == nil || !strings.Contains(err.Error(), "above the maximum") {
			t.Errorf("%s=%g: error = %v, want above-maximum rejection", name, s.Max+1, err)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			_, err := reg.Run(core.KnobOwner(name), core.Config{
				Seed: 1, Scale: 1, Params: map[string]float64{name: bad},
			})
			if err == nil || !strings.Contains(err.Error(), "not a finite number") {
				t.Errorf("%s=%g: error = %v, want non-finite rejection", name, bad, err)
			}
		}
	}
}

// TestIntegerKnobRejectsFraction checks fractional values of integer knobs
// are rejected rather than rounded into duplicate sweep groups.
func TestIntegerKnobRejectsFraction(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	specs := KnobSpecs()
	for _, name := range sortedKnobNames(t) {
		s := specs[name]
		if !s.Integer {
			continue
		}
		_, err := reg.Run(core.KnobOwner(name), core.Config{
			Seed: 1, Scale: 1, Params: map[string]float64{name: s.Default + 0.5},
		})
		if err == nil || !strings.Contains(err.Error(), "must be an integer") {
			t.Errorf("%s=%g: error = %v, want integer rejection", name, s.Default+0.5, err)
		}
	}
}

// TestScaledKnobBelowFloorAfterScaling checks the knob rule's post-scaling half:
// an explicitly-set workload knob that a small -scale pushes below the
// measurement floor is an error, not a silent clamp.
func TestScaledKnobBelowFloorAfterScaling(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	// e03.nodes has floor 200; 300 * 0.5 = 150 < 200.
	_, err = reg.Run("E03", core.Config{
		Seed: 1, Scale: 0.5, Params: map[string]float64{"e03.nodes": 300},
	})
	if err == nil || !strings.Contains(err.Error(), "falls below the measurement floor") {
		t.Fatalf("error = %v, want post-scaling floor rejection", err)
	}
}

// TestScaledKnobAboveMaxAfterScaling checks the mirrored rule: an
// explicitly-set workload knob that a large -scale pushes past the spec
// maximum is also an error.
func TestScaledKnobAboveMaxAfterScaling(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	// e03.nodes has max 100000; 90000 * 2 = 180000 > 100000.
	_, err = reg.Run("E03", core.Config{
		Seed: 1, Scale: 2, Params: map[string]float64{"e03.nodes": 90_000},
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
		t.Fatalf("error = %v, want post-scaling maximum rejection", err)
	}
}

// TestKnobsRejectForeignOwner checks a knob cannot be smuggled into a
// different experiment's run.
func TestKnobsRejectForeignOwner(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	_, err = reg.Run("E06", core.Config{
		Seed: 1, Scale: 1, Params: map[string]float64{"e03.nodes": 1500},
	})
	if err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("error = %v, want ownership rejection", err)
	}
}
