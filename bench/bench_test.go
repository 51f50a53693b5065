package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/debug"
	"testing"
)

// smoke shrinks every workload so that all of them, traced and untraced,
// run in a few seconds: scale 0.1, one seed, 200 warm requests.
var smoke = sizes{scale: 0.1, serveScale: 0.1, seeds: 1, setups: 1, clients: smokeClients(), warmGETs: 200, probeGETs: 100, probeDiv: 100, probeReps: 1}

// smokeClients is 2, as in a real run, except under the race detector.
// Two concurrent requests make serve.normalize upper-case the server's
// shared base.IDs slice in place from two goroutines: a data race in the
// program (the values written are identical, so results are unaffected).
// This change may not touch program code; until the race is fixed, the
// race-enabled run drives the service with one client so that the rest of
// the benchmark stays under the detector.
func smokeClients() int {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return 1
			}
		}
	}
	return 2
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest pins BENCHMARK.json to the tables in table.go (the tables
// are the source; regenerate with `go run ./bench -manifest`) and checks
// the tables against the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Errorf("BENCHMARK.json differs from the tables in table.go; run `go run ./bench -manifest > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	setup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
}

// learnSmoke runs one workload at smoke size recording its outputs as
// expectations, the way -update does at full size.
func learnSmoke(t *testing.T, workload string) *expectations {
	t.Helper()
	exp := &expectations{Seed: 1, Reproduced: map[string]string{}, Digests: map[string]string{}, learn: true, shapes: map[string][]bool{}}
	r := newRun(runOpts{workload: workload, seed: 1}, smoke, exp)
	r.pinned = true
	if err := r.execute(); err != nil {
		t.Fatal(err)
	}
	exp.settle()
	exp.learn = false
	return exp
}

// TestSmoke runs every workload untraced and traced at smoke size: no
// operation may fail, and every metric of BENCHMARK.json must be emitted
// exactly once (emit panics on a second value) with a finite value.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			smokeRun(t, w.Name, false)
			r := smokeRun(t, w.Name, true)
			// A real pass is covered to 99.8% (README.md). A smoke pass lasts
			// tens of milliseconds, so one preemption between two spans on a
			// loaded box is a visible share of it: only sanity is asserted.
			if cov := r.out.values["bench.span_coverage_frac"]; cov < 0.5 || cov > 1 {
				t.Errorf("named spans cover %.2f of the traced pass", cov)
			}
			var buf bytes.Buffer
			if err := r.tr.writeChrome(&buf); err != nil || !json.Valid(buf.Bytes()) {
				t.Errorf("trace is not valid JSON (%v)", err)
			}
		})
	}
}

func smokeRun(t *testing.T, workload string, trace bool) *run {
	t.Helper()
	r := newRun(runOpts{workload: workload, seed: 1, trace: trace}, smoke, &expectations{})
	if err := r.execute(); err != nil {
		t.Fatalf("trace=%t: %v", trace, err)
	}
	if r.out.failed != 0 || r.out.attempted < 1 {
		t.Errorf("trace=%t: %d of %d operations failed: %v", trace, r.out.failed, r.out.attempted, r.out.failures)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(r.out.values) != len(defs) {
		t.Errorf("trace=%t: %d metrics emitted, want %d", trace, len(r.out.values), len(defs))
	}
	for _, d := range defs {
		v, ok := r.out.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("trace=%t: metric %s missing or not finite (%v)", trace, d.Name, v)
		}
		if !trace && v <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v)
		}
	}
	return r
}

// TestMismatchFails shows that a wrong digest, a wrong shape expectation
// and a wrong served byte each turn into failed operations — which main
// turns into a non-zero exit.
func TestMismatchFails(t *testing.T) {
	t.Parallel()
	rerun := func(workload string, exp *expectations) *outcome {
		t.Helper()
		r := newRun(runOpts{workload: workload, seed: 1}, smoke, exp)
		r.pinned = true
		if err := r.execute(); err != nil {
			t.Fatal(err)
		}
		return r.out
	}
	exp := learnSmoke(t, wlStatic)
	if out := rerun(wlStatic, exp); out.failed != 0 {
		t.Fatalf("learned expectations do not hold on a second run: %v", out.failures)
	}
	for key, sum := range exp.Digests {
		exp.Digests[key] = "0000"
		if out := rerun(wlStatic, exp); out.failed != 1 {
			t.Errorf("one corrupted digest: %d failed operations, want 1: %v", out.failed, out.failures)
		}
		exp.Digests[key] = sum
		break
	}
	for key, v := range exp.Reproduced {
		exp.Reproduced[key] = map[string]string{"yes": "no", "no": "yes"}[v]
		if out := rerun(wlStatic, exp); out.failed != 1 {
			t.Errorf("one flipped shape expectation: %d failed operations, want 1: %v", out.failed, out.failures)
		}
		break
	}

	want := []byte("<html>report</html>")
	if err := checkServed("/report", "hit", "hit", want, want); err != nil {
		t.Errorf("matching body and lane: %v", err)
	}
	if checkServed("/report", "hit", "hit", []byte("<html>rep0rt</html>"), want) == nil {
		t.Error("a served byte that differs from the offline tree must fail")
	}
	if checkServed("/report", "miss", "hit", want, want) == nil {
		t.Error("a second fetch that reports miss must fail")
	}
	if checkServed("/report/nope", "hit", "hit", nil, nil) == nil {
		t.Error("a path the offline tree does not hold must fail")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestFoldSeed(t *testing.T) {
	for n, want := range map[int64]int64{1: 1, 16: 16, 17: 1, 0: 16, -1: 15, 1 << 40: 1 + (1<<40-1)%16} {
		if got := foldSeed(n); got != want {
			t.Errorf("foldSeed(%d) = %d, want %d", n, got, want)
		}
	}
}
