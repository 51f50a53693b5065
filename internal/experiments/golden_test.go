package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
)

// updateGolden rewrites the golden baselines from the current code:
//
//	go test ./internal/experiments -run Golden -update
//
// Only do this for an intentional baseline change; the files are the
// byte-level contract that knob-free runs reproduce the pre-knob outputs.
var updateGolden = flag.Bool("update", false, "rewrite golden experiment outputs")

// goldenRun runs one experiment knob-free and compares (or rewrites) its
// golden JSON artifact.
func goldenRun(t *testing.T, e core.Experiment, scale float64, dir string) {
	t.Helper()
	res, err := e.Run(core.Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	enc, err := res.JSON()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	enc = append(enc, '\n')
	path := filepath.Join("testdata", dir, e.ID()+".json")
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("%s output at scale %g is not byte-identical to %s;\nrun with -update only if the baseline change is intentional\ngot  %d bytes\nwant %d bytes",
			e.ID(), scale, path, len(enc), len(want))
	}
}

// TestGoldenKnobFreeRuns is the knob-regression contract: with no knobs
// set, every experiment's seed-1 output is byte-identical to the baseline
// captured before the knob registry existed. Any knob whose default drifts
// from the original literal breaks this test.
func TestGoldenKnobFreeRuns(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	for _, e := range reg.All() {
		e := e
		t.Run(e.ID(), func(t *testing.T) {
			goldenRun(t, e, 0.25, "golden")
			if testing.Short() {
				return
			}
			goldenRun(t, e, 1, "golden_scale1")
		})
	}
}

// TestE04ScaledDigest pins E04 at five times its default honest population,
// where the uniform sybil clouds reach 2 000 identities against the goldens'
// 400, to the digest of its JSON captured before poisoned replies were read
// from a prefix index over the cloud.
func TestE04ScaledDigest(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	res, err := reg.Run("E04", core.Config{Seed: 1, Scale: 1, Params: map[string]float64{"e04.honest": 4000}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	enc, err := res.JSON()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	const want = "6fc484c8782a3d355c6e3043cd9e294ffc03447086c7d9d0d39d3d8e386fa234"
	if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != want {
		t.Errorf("E04 at e04.honest=4000: digest %x, want %s", sum, want)
	}
}

// TestGoldenExplicitDefaultKnobs runs every experiment with each of its
// knobs explicitly set to its spec default and requires the same golden
// bytes: proving that the knob is actually read by its owner (owner
// routing accepts it) and that the registered default equals the literal
// it replaced.
func TestGoldenExplicitDefaultKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("explicit-default golden sweep skipped in -short mode")
	}
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	specs := KnobSpecs()
	byOwner := make(map[string]map[string]float64)
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		owner := core.KnobOwner(name)
		if byOwner[owner] == nil {
			byOwner[owner] = make(map[string]float64)
		}
		byOwner[owner][name] = specs[name].Default
	}
	for _, e := range reg.All() {
		e := e
		params := byOwner[e.ID()]
		if len(params) == 0 {
			t.Errorf("%s has no registered knobs", e.ID())
			continue
		}
		t.Run(e.ID(), func(t *testing.T) {
			res, err := e.Run(core.Config{Seed: 1, Scale: 1, Params: params})
			if err != nil {
				t.Fatalf("run with explicit defaults %v: %v", params, err)
			}
			enc, err := res.JSON()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden_scale1", e.ID()+".json"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if !bytes.Equal(append(enc, '\n'), want) {
				t.Errorf("%s with explicit default knobs diverges from the knob-free baseline", e.ID())
			}
		})
	}
}
