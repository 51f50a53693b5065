package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// expectations is testdata/expected.json: what the program's outputs must
// be. `go run ./bench -update` regenerates it, as the repository's golden
// files are regenerated.
type expectations struct {
	// Seed is the base seed the digests are pinned at.
	Seed int64 `json:"seed"`
	// Reproduced maps a scenario (harness.ScenarioKey) to "yes", "no" or
	// "varies": what Result.Reproduced() returned over every seed a
	// scenario can run with, 1..seedFold+2. "varies" marks a verdict that
	// depends on the seed (E01's is known to) and is not checked.
	Reproduced map[string]string `json:"reproduced"`
	// Digests maps a run (runKey) or "tree|<workload>" to the SHA-256 of
	// its result JSON or report manifest at Seed.
	Digests map[string]string `json:"digests"`

	// learn makes the checks record what they see instead of failing;
	// -update runs with it and then writes the file.
	learn  bool
	shapes map[string][]bool
}

//go:embed testdata/expected.json
var expectedJSON []byte

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("bench: testdata/expected.json: %w", err)
	}
	return &e, nil
}

func (e *expectations) checkDigest(o *outcome, key, got string) {
	if e.learn {
		e.Digests[key] = got
		return
	}
	want, ok := e.Digests[key]
	o.op(ok && got == want, "%s: sha256 %.12s, committed %.12s (bench -update regenerates)", key, got, want)
}

func (e *expectations) checkShape(o *outcome, scenario string, seed int64, got bool) {
	if e.learn {
		e.shapes[scenario] = append(e.shapes[scenario], got)
		return
	}
	switch want := e.Reproduced[scenario]; want {
	case "varies":
	case "yes", "no":
		o.op(got == (want == "yes"), "%s seed %d: Reproduced() = %t, committed expectation %q", scenario, seed, got, want)
	default:
		o.op(false, "%s: no committed shape expectation (bench -update regenerates)", scenario)
	}
}

// settle folds the learned verdicts into Reproduced.
func (e *expectations) settle() {
	for key, seen := range e.shapes {
		yes := 0
		for _, ok := range seen {
			if ok {
				yes++
			}
		}
		switch yes {
		case len(seen):
			e.Reproduced[key] = "yes"
		case 0:
			e.Reproduced[key] = "no"
		default:
			e.Reproduced[key] = "varies"
		}
	}
}

// outcome accumulates one run's operations and metrics. An operation is
// one experiment run, one digest or shape check, or one HTTP request.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
	order     []string
	notes     []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// op counts one operation; when it failed, the message is kept.
func (o *outcome) op(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(1, format, args...)
	}
}

// ops counts n operations of which failed failed.
func (o *outcome) ops(n, failed int, format string, args ...any) {
	o.attempted += n
	if failed > 0 {
		o.fail(failed, "%d x "+format, append([]any{failed}, args...)...)
	}
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// emit records a metric. A second value for one name, or a value that is
// not finite, is a bug in the benchmark; complete catches stray names.
func (o *outcome) emit(name string, v float64) {
	if _, dup := o.values[name]; dup {
		panic("bench: metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is %g", name, v))
	}
	o.values[name] = v
	o.order = append(o.order, name)
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// complete checks that exactly the metrics of defs were emitted.
func (o *outcome) complete(defs []metricDef) error {
	var missing []string
	for _, d := range defs {
		if _, ok := o.values[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 || len(o.values) != len(defs) {
		return fmt.Errorf("bench: %d metrics emitted, the table has %d; missing %v", len(o.values), len(defs), missing)
	}
	return nil
}
