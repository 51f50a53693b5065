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

// scaledDigest runs one experiment at the given seed with params set and
// returns the SHA-256 of its JSON.
func scaledDigest(t *testing.T, id string, seed int64, params map[string]float64) string {
	t.Helper()
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	res, err := reg.Run(id, core.Config{Seed: seed, Scale: 1, Params: params})
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	enc, err := res.JSON()
	if err != nil {
		t.Fatalf("encode %s: %v", id, err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// TestE04ScaledDigest pins E04 at five times its default honest population,
// where the uniform sybil clouds reach 2 000 identities against the goldens'
// 400, to the digest of its JSON captured before poisoned replies were read
// from a prefix index over the cloud.
func TestE04ScaledDigest(t *testing.T) {
	const want = "6fc484c8782a3d355c6e3043cd9e294ffc03447086c7d9d0d39d3d8e386fa234"
	if got := scaledDigest(t, "E04", 1, map[string]float64{"e04.honest": 4000}); got != want {
		t.Errorf("E04 at e04.honest=4000: digest %s, want %s", got, want)
	}
}

// TestE03ScaledDigest pins E03 at four times its default overlay and at
// the sizes the benchmark's dht-static workload runs (1 500 lookups and the
// default config, seeds 1..3), to digests of its JSON captured on the
// sharded driver E03 ran on before it moved to one kernel.
func TestE03ScaledDigest(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		params map[string]float64
		want   string
	}{
		{1, map[string]float64{"e03.nodes": 6000}, "4da76a9b012f443f9023dd5c0222f39ca44b03e57be299573332a986f3c99858"},
		{1, map[string]float64{"e03.lookups": 1500}, "959b01b7752ad21d12e44f6bd87b8669a7bb626008074eb5765f08dced393bdc"},
		{2, map[string]float64{"e03.lookups": 1500}, "4edf0cd6bc7adcba8fb09153de6d4e85783da6ca737dce149ee57a6c82c3e1bd"},
		{3, map[string]float64{"e03.lookups": 1500}, "dc0b997e4b2261d9c4915bb660f7a582088465f700048cab6421ef40aeab113b"},
		{2, nil, "a5d65519d74e464b12fcdc3ad7b2bd0f9129bffce5250c9e33e96097a2741400"},
		{3, nil, "8d56f629c505cf1d72b157b91014f9c0f7738b6621f646102972fbbd75ab24f7"},
	} {
		if got := scaledDigest(t, "E03", tc.seed, tc.params); got != tc.want {
			t.Errorf("E03 seed %d %v: digest %s, want %s", tc.seed, tc.params, got, tc.want)
		}
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
