package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
)

// updateGolden rewrites the golden baselines from the current code. One
// command re-pins them together with the report goldens, the CLI's flag
// matrix and its table of scaled digests:
//
//	go test ./internal/experiments ./internal/report ./cmd/decentsim -update
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

// pinTable is the CLI's table of scaled digests, the one place their
// values live: TestScaledDigests in cmd/decentsim checks and re-pins it.
var pinTable = filepath.Join("..", "..", "cmd", "decentsim", "testdata", "digests.json")

// scaledDigest runs one experiment at the given seed with params set and
// compares the SHA-256 of what `decentsim run -json` writes for that run
// (its result in the CLI's {results, errors} document) with the table's
// pin for case pin. Under -update it compares nothing, since the table is
// re-pinned by the same command.
func scaledDigest(t *testing.T, pin, id string, seed int64, params map[string]float64) {
	t.Helper()
	if *updateGolden {
		return
	}
	raw, err := os.ReadFile(pinTable)
	if err != nil {
		t.Fatalf("read pin table: %v", err)
	}
	var cases []struct{ Name, SHA256 string }
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("parse %s: %v", pinTable, err)
	}
	want := ""
	for _, c := range cases {
		if c.Name == pin {
			want = c.SHA256
		}
	}
	if want == "" {
		t.Fatalf("%s has no case %q", pinTable, pin)
	}
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	res, err := reg.Run(id, core.Config{Seed: seed, Scale: 1, Params: params})
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	doc := struct {
		Results []*core.Result `json:"results"`
		Errors  []struct{}     `json:"errors"`
	}{Results: []*core.Result{res}, Errors: []struct{}{}}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("encode %s: %v", id, err)
	}
	sum := sha256.Sum256(append(enc, '\n'))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s seed %d %v: digest %s, want %s (case %s)", id, seed, params, got, want, pin)
	}
}

// TestE04ScaledDigest pins E04 at five times its default honest population,
// where the uniform sybil clouds reach 2 000 identities against the goldens'
// 400, to the digest captured before poisoned replies were read from a
// prefix index over the cloud (case E04-honest-4000).
func TestE04ScaledDigest(t *testing.T) {
	scaledDigest(t, "E04-honest-4000", "E04", 1, map[string]float64{"e04.honest": 4000})
}

// TestE03ScaledDigest pins E03 at four times its default overlay and at
// the sizes the benchmark's dht-static workload runs (1 500 lookups and the
// default config, seeds 1..3), to digests captured on the sharded driver
// E03 ran on before it moved to one kernel.
func TestE03ScaledDigest(t *testing.T) {
	for _, tc := range []struct {
		pin    string
		seed   int64
		params map[string]float64
	}{
		{"E03-nodes-6000", 1, map[string]float64{"e03.nodes": 6000}},
		{"E03-lookups-1500-seed-1", 1, map[string]float64{"e03.lookups": 1500}},
		{"E03-lookups-1500-seed-2", 2, map[string]float64{"e03.lookups": 1500}},
		{"E03-lookups-1500-seed-3", 3, map[string]float64{"e03.lookups": 1500}},
		{"E03-seed-2", 2, nil},
		{"E03-seed-3", 3, nil},
	} {
		scaledDigest(t, tc.pin, "E03", tc.seed, tc.params)
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
