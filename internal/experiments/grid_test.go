package experiments

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
)

// TestGridSpansFloorDefaultStretch checks the default grid shape on a
// representative scaled workload knob: it starts at the measurement
// floor, excludes the default (the baseline replication covers it), and
// stretches to twice the default.
func TestGridSpansFloorDefaultStretch(t *testing.T) {
	s := knobSpecs["e03.nodes"] // Default 1500, Min 200, Max 100000
	g := s.Grid(5, 1)
	if len(g) == 0 {
		t.Fatal("empty grid")
	}
	if g[0] != s.Min {
		t.Errorf("grid starts at %g, want floor %g", g[0], s.Min)
	}
	if got := g[len(g)-1]; got != 2*s.Default {
		t.Errorf("grid ends at %g, want stretch %g", got, 2*s.Default)
	}
	if !sort.Float64sAreSorted(g) {
		t.Errorf("grid not ascending: %v", g)
	}
	for _, v := range g {
		if v == s.Default {
			t.Errorf("grid contains the default %g: %v", s.Default, g)
		}
		if v < s.Min || v > s.Max {
			t.Errorf("grid value %g outside [%g, %g]", v, s.Min, s.Max)
		}
	}
}

// TestGridSinglePoint pins the degenerate one-point grid: the knob at
// its floor.
func TestGridSinglePoint(t *testing.T) {
	s := knobSpecs["e03.nodes"]
	g := s.Grid(1, 1)
	if len(g) != 1 || g[0] != s.Min {
		t.Fatalf("Grid(1, 1) = %v, want [%g]", g, s.Min)
	}
}

// TestGridCategoricalEnumerates checks selector knobs
// (small integer domains) enumerate every value instead of interpolating.
func TestGridCategoricalEnumerates(t *testing.T) {
	cases := []struct {
		knob string
		want []float64
	}{
		// Default 0 excluded; presets 1..4 enumerated.
		{"e08.mix", []float64{1, 2, 3, 4}},
		// Default 1 excluded.
		{"e19.mix", []float64{2, 3, 4}},
		// Default 2 excluded.
		{"e16.endorsers", []float64{1, 3}},
	}
	for _, c := range cases {
		got := knobSpecs[c.knob].Grid(5, 1)
		if len(got) != len(c.want) {
			t.Errorf("%s grid = %v, want %v", c.knob, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s grid = %v, want %v", c.knob, got, c.want)
				break
			}
		}
	}
}

// TestGridScaledFloorSurvivesScaling checks that at -scale < 1 the low
// grid point of a scaled knob rises so the post-scaling value stays at
// or above the measurement floor, and that the value actually runs.
func TestGridScaledFloorSurvivesScaling(t *testing.T) {
	s := knobSpecs["e03.nodes"]
	const scale = 0.25
	g := s.Grid(5, scale)
	if len(g) == 0 {
		t.Fatal("empty grid")
	}
	if want := math.Ceil(s.Min / scale); g[0] != want {
		t.Errorf("scaled grid starts at %g, want ceil(Min/scale) = %g", g[0], want)
	}
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	if _, err := reg.Run("E03", core.Config{
		Seed: 1, Scale: scale,
		Params: map[string]float64{"e03.nodes": g[0]},
	}); err != nil {
		t.Errorf("floor grid point %g errored at scale %g: %v", g[0], scale, err)
	}
}

// TestGridRequiresKeepsDefault checks that a knob with companion
// requirements keeps its default value in the grid: the scenario (with
// companions applied) differs from the baseline even at the default.
func TestGridRequiresKeepsDefault(t *testing.T) {
	s := knobSpecs["e08.loss"]
	if len(s.Requires) == 0 {
		t.Fatal("e08.loss should require a companion mix knob")
	}
	g := s.Grid(5, 1)
	if len(g) == 0 || g[0] != s.Default {
		t.Fatalf("grid %v should keep the default %g as its anchor", g, s.Default)
	}
}

// TestSensitivityGridsValid validates every default-grid value against
// the same rules a run enforces: raw bounds, integrality, ownership of
// companions, and — for scaled knobs — the post-scaling floor. This is
// the contract that `report -sensitivity` never submits a job that can
// only fail validation. Every grid is also strictly ascending at the grid
// sizes and scales reports use, so no value is swept twice (it would
// aggregate into one group and double-count every seed) and pages list
// grid points in knob order.
func TestSensitivityGridsValid(t *testing.T) {
	for _, points := range []int{1, 3, 5} {
		for _, scale := range []float64{0.25, 1} {
			for name, g := range SensitivityGrids(points, scale) {
				for i := 1; i < len(g); i++ {
					if g[i] <= g[i-1] {
						t.Errorf("points %d scale %g: knob %s grid is not strictly ascending: %v", points, scale, name, g)
						break
					}
				}
			}
		}
	}
	for _, scale := range []float64{1, 0.25} {
		grids := SensitivityGrids(0, scale)
		for _, name := range sortedKnobNames(t) {
			s := knobSpecs[name]
			g, ok := grids[name]
			if !ok {
				t.Errorf("scale %g: knob %s has no grid", scale, name)
				continue
			}
			for _, v := range g {
				params := map[string]float64{name: v}
				for rn, rv := range s.Requires {
					params[rn] = rv
				}
				cfg := core.Config{Seed: 1, Scale: scale, Params: params}
				if err := ValidateKnobs(core.KnobOwner(name), cfg); err != nil {
					t.Errorf("scale %g: %s=%g fails validation: %v", scale, name, v, err)
				}
				if s.Scaled {
					if scaled := cfg.ScaleInt(int(v)); float64(scaled) < s.Min || float64(scaled) > s.Max {
						t.Errorf("scale %g: %s=%g scales to %d outside [%g, %g]",
							scale, name, v, scaled, s.Min, s.Max)
					}
				}
			}
		}
	}
}

// TestSensitivityGridsCoverEveryKnob checks that at scale 1 every
// registered knob gets a non-empty default grid — the acceptance
// criterion that every experiment page gains at least one sensitivity
// figure.
func TestSensitivityGridsCoverEveryKnob(t *testing.T) {
	grids := SensitivityGrids(0, 1)
	if len(grids) != len(knobSpecs) {
		t.Errorf("grids cover %d of %d knobs", len(grids), len(knobSpecs))
	}
	for name, g := range grids {
		if len(g) == 0 {
			t.Errorf("knob %s has an empty grid", name)
		}
		if len(g) > DefaultGridPoints {
			t.Errorf("knob %s grid has %d values, cap is %d: %v", name, len(g), DefaultGridPoints, g)
		}
	}
}

// TestKnobGridValuesWellFormed checks hand-picked grids stay inside the
// spec's range, respect integrality, and actually run (e13.raftnodes'
// odd-cluster constraint is exactly why the override exists).
func TestKnobGridValuesWellFormed(t *testing.T) {
	for _, name := range sortedKnobNames(t) {
		s := knobSpecs[name]
		for _, v := range s.GridValues {
			if v < s.Min || v > s.Max {
				t.Errorf("knob %s GridValues entry %g outside [%g, %g]", name, v, s.Min, s.Max)
			}
			if s.Integer && v != math.Trunc(v) {
				t.Errorf("integer knob %s has fractional grid value %g", name, v)
			}
		}
	}
}

// TestRaftNodesGridRuns pins the override's purpose: every grid value of
// e13.raftnodes is a legal (odd) cluster size.
func TestRaftNodesGridRuns(t *testing.T) {
	for _, v := range knobSpecs["e13.raftnodes"].Grid(0, 1) {
		if int(v)%2 == 0 {
			t.Errorf("e13.raftnodes grid value %g is even; raft requires odd n", v)
		}
	}
}

// TestKnobRequiresWellFormed checks companion assignments reference
// registered knobs of the same experiment with in-range values.
func TestKnobRequiresWellFormed(t *testing.T) {
	for _, name := range sortedKnobNames(t) {
		s := knobSpecs[name]
		for rn, rv := range s.Requires {
			rs, ok := knobSpecs[rn]
			if !ok {
				t.Errorf("knob %s requires unregistered knob %s", name, rn)
				continue
			}
			if core.KnobOwner(rn) != core.KnobOwner(name) {
				t.Errorf("knob %s requires %s owned by a different experiment", name, rn)
			}
			if rv < rs.Min || rv > rs.Max {
				t.Errorf("knob %s requires %s=%g outside [%g, %g]", name, rn, rv, rs.Min, rs.Max)
			}
		}
	}
}
