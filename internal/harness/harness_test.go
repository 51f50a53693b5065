package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// fakeExp is a deterministic experiment for harness-level tests: its one
// metric is seed*k (k a knob), its one check passes on odd seeds, and it
// can be told to error or to panic on a specific seed.
type fakeExp struct {
	id        string
	errSeed   int64
	panicSeed int64
}

func (f *fakeExp) ID() string    { return f.id }
func (f *fakeExp) Title() string { return "fake " + f.id }
func (f *fakeExp) Claim() string { return "claim for " + f.id }

func (f *fakeExp) Run(cfg core.Config) (*core.Result, error) {
	if f.errSeed != 0 && cfg.Seed == f.errSeed {
		return nil, fmt.Errorf("boom at seed %d", cfg.Seed)
	}
	if f.panicSeed != 0 && cfg.Seed == f.panicSeed {
		panic(fmt.Sprintf("kaboom at seed %d", cfg.Seed))
	}
	r := &core.Result{ID: f.id, Title: f.Title(), Claim: f.Claim()}
	t := metrics.NewTable("tab", "row", "value", "note")
	t.AddRowf("a", float64(cfg.Seed)*cfg.Param("k", 1), "not a number")
	r.Tables = append(r.Tables, t)
	r.AddCheck(cfg.Seed%2 == 1, "odd-seed", "seed %d", cfg.Seed)
	return r, nil
}

func fakeRegistry(t *testing.T, exps ...core.Experiment) *core.Registry {
	t.Helper()
	reg, err := core.NewRegistry(exps...)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	return reg
}

// runAll runs jobs on a fresh Runner that nothing cancels. Jobs share
// GOMAXPROCS cores, so GOMAXPROCS is raised to workers for the call: on a
// 2-core machine Workers 8 would otherwise run only 2 jobs at a time.
func runAll(reg *core.Registry, jobs []Job, workers int) []JobResult {
	if workers > runtime.GOMAXPROCS(0) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	}
	r := Runner{Registry: reg, Workers: workers}
	return r.Run(context.Background(), jobs)
}

func TestSweepJobsOrder(t *testing.T) {
	s := Sweep{
		Experiments: []string{"X1", "X2"},
		Seeds:       []int64{1, 2},
		Scales:      []float64{0.5, 1},
		Params:      map[string][]float64{"k": {10, 20}},
	}
	jobs := s.Jobs()
	if len(jobs) != 2*2*2*2 {
		t.Fatalf("len(jobs) = %d, want 16", len(jobs))
	}
	// Seeds vary innermost; experiments outermost.
	if jobs[0].ExperimentID != "X1" || jobs[0].Config.Seed != 1 || jobs[1].Config.Seed != 2 {
		t.Fatalf("unexpected leading jobs: %+v", jobs[:2])
	}
	if jobs[0].Config.Params["k"] != 10 || jobs[2].Config.Params["k"] != 20 {
		t.Fatalf("knob crossing wrong: %+v", jobs[:4])
	}
	if jobs[8].ExperimentID != "X2" {
		t.Fatalf("experiment should be outermost, job 8 = %+v", jobs[8])
	}
}

func TestSweepKnobAppliesOnlyToItsExperiment(t *testing.T) {
	s := Sweep{
		Experiments: []string{"E03", "E06"},
		Seeds:       []int64{1, 2},
		Params:      map[string][]float64{"e03.lookups": {100, 200}},
	}
	jobs := s.Jobs()
	// E03 crosses the knob (2 values x 2 seeds); E06 gets the bare grid.
	if len(jobs) != 4+2 {
		t.Fatalf("len(jobs) = %d, want 6", len(jobs))
	}
	for _, j := range jobs {
		hasKnob := j.Config.Params != nil
		if j.ExperimentID == "E06" && hasKnob {
			t.Fatalf("E06 job should not carry e03 knob: %+v", j)
		}
		if j.ExperimentID == "E03" && !hasKnob {
			t.Fatalf("E03 job should carry the knob: %+v", j)
		}
	}
}

// TestSweepValidateForeignKnob pins the knob-ownership rule every entry
// point (run, sweep, trace, report generation) validates through: a
// knob owned by an experiment the sweep does not include is an error, not
// a silently dropped or duplicated grid axis.
func TestSweepValidateForeignKnob(t *testing.T) {
	s := Sweep{Experiments: []string{"E11"}, Params: map[string][]float64{"e03.lookups": {100, 200}}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not among the selected") {
		t.Fatalf("foreign knob: err = %v", err)
	}
	s.Experiments = []string{"E11", "e03"}
	if err := s.Validate(); err != nil {
		t.Fatalf("owned knob (case-insensitive owner): err = %v", err)
	}
	s = Sweep{Experiments: []string{"E11"}, Params: map[string][]float64{"k": {1}}}
	if err := s.Validate(); err != nil {
		t.Fatalf("global (unowned) knob: err = %v", err)
	}
}

func TestParseSeedsRangeCap(t *testing.T) {
	// The cap applies to ranges, and to single entries past a full range.
	for _, bad := range []string{"1..9223372036854775807", "1..2000000", "1..1048576,9999999"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) should hit the cap", bad)
		}
	}
}

func TestSweepJobsDefaults(t *testing.T) {
	jobs := Sweep{Experiments: []string{"X1"}}.Jobs()
	if len(jobs) != 1 || jobs[0].Config.Seed != 1 || jobs[0].Config.Scale != 1 {
		t.Fatalf("default expansion wrong: %+v", jobs)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds("1..4")
	if err != nil || !reflect.DeepEqual(got, []int64{1, 2, 3, 4}) {
		t.Fatalf("ParseSeeds(1..4) = %v, %v", got, err)
	}
	got, err = ParseSeeds("3,7..9, 42")
	if err != nil || !reflect.DeepEqual(got, []int64{3, 7, 8, 9, 42}) {
		t.Fatalf("ParseSeeds mixed = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "5..1", "1..x", ",", "1,,2", "0", "0..2", "-1", "1,1..5", "2,2"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) should fail", bad)
		}
	}
}

func TestParseScales(t *testing.T) {
	got, err := ParseScales("0.25, 0.5,1")
	if err != nil || !reflect.DeepEqual(got, []float64{0.25, 0.5, 1}) {
		t.Fatalf("ParseScales = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "x", "1,", "0.5,0.5", "NaN", "Inf", "-Inf"} {
		if _, err := ParseScales(bad); err == nil {
			t.Errorf("ParseScales(%q) should fail", bad)
		}
	}
}

func TestParseParam(t *testing.T) {
	name, vals, err := ParseParam("e03.lookups=100, 200")
	if err != nil || name != "e03.lookups" || !reflect.DeepEqual(vals, []float64{100, 200}) {
		t.Fatalf("ParseParam = %q, %v, %v", name, vals, err)
	}
	for _, bad := range []string{"", "=1", "k", "k=", "k=a", "k=1,1", "k=NaN", "k=Inf", "k=NaN,NaN"} {
		if _, _, err := ParseParam(bad); err == nil {
			t.Errorf("ParseParam(%q) should fail", bad)
		}
	}
}

func TestParamLabelCanonical(t *testing.T) {
	label := ParamLabel(map[string]float64{"b": 2, "a": 0.5})
	if label != "a=0.5,b=2" {
		t.Fatalf("ParamLabel = %q", label)
	}
	if ParamLabel(nil) != "" {
		t.Fatalf("ParamLabel(nil) should be empty")
	}
}

func TestRunnerPreservesJobOrder(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"}, &fakeExp{id: "X2"})
	jobs := Sweep{Experiments: []string{"X1", "X2"}, Seeds: []int64{1, 2, 3, 4, 5}}.Jobs()
	results := runAll(reg, jobs, 4)
	if len(results) != len(jobs) {
		t.Fatalf("len(results) = %d, want %d", len(results), len(jobs))
	}
	for i, jr := range results {
		if jr.Job.ExperimentID != jobs[i].ExperimentID {
			t.Fatalf("result %d out of order: %+v", i, jr.Job)
		}
		if jr.Job.Config.Seed != jobs[i].Config.Seed {
			t.Fatalf("result %d has seed %d, want %d", i, jr.Job.Config.Seed, jobs[i].Config.Seed)
		}
	}
}

// TestRunnerContainsPanic pins panic containment: an experiment that panics
// costs the sweep that one job — its slot carries an error naming the
// scenario, the seed and the panic value — and every other job's result
// comes back as if nothing had happened.
func TestRunnerContainsPanic(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"}, &fakeExp{id: "X2", panicSeed: 2}, &fakeExp{id: "X3"})
	jobs := Sweep{Experiments: []string{"X1", "X2", "X3"}, Seeds: []int64{1, 2, 3}}.Jobs()
	for _, profiled := range []bool{false, true} {
		r := Runner{Registry: reg, Workers: 2}
		if profiled {
			r.ProfileDir = t.TempDir()
		}
		results := r.Run(context.Background(), jobs)
		for i, jr := range results {
			bad := jr.Job.ExperimentID == "X2" && jr.Job.Config.Seed == 2
			switch {
			case !bad && (jr.Err != nil || jr.Result == nil):
				t.Errorf("profiled=%v job %d (%s seed %d) lost to a sibling's panic: %v",
					profiled, i, jr.Job.ExperimentID, jr.Job.Config.Seed, jr.Err)
			case bad && jr.Err == nil:
				t.Errorf("profiled=%v: panicking job reported no error", profiled)
			case bad:
				for _, want := range []string{ScenarioKey("X2", 1, nil), "seed 2", "kaboom at seed 2"} {
					if !strings.Contains(jr.Err.Error(), want) {
						t.Errorf("profiled=%v: panic error %q does not carry %q", profiled, jr.Err, want)
					}
				}
			}
		}
	}
}

// TestProfileStems pins the profile file names: the documented <ID>-s<seed>
// while each experiment runs as one scenario, and the scenario spelled into
// the stem as soon as a batch holds the same experiment at several scales or
// knob values — at the parent those jobs silently overwrote one file pair.
func TestProfileStems(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"}, &fakeExp{id: "X2"})
	dir := t.TempDir()
	r := Runner{Registry: reg, Workers: 2, ProfileDir: dir}
	jobs := Sweep{Experiments: []string{"x1"}, Seeds: []int64{1}, Scales: []float64{0.1, 0.2}}.Jobs()
	for _, jr := range r.Run(context.Background(), jobs) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Job.ExperimentID, jr.Err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{
		"X1-0.1-s1.cpu.pprof", "X1-0.1-s1.heap.base.pprof", "X1-0.1-s1.heap.pprof",
		"X1-0.2-s1.cpu.pprof", "X1-0.2-s1.heap.base.pprof", "X1-0.2-s1.heap.pprof",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("2 scales x 1 seed left %v, want %v", got, want)
	}

	// A grid over one experiment beside a plain replication of another:
	// only the gridded experiment's stems change, and no two jobs collide.
	jobs = append(Sweep{
		Experiments: []string{"X1"},
		Seeds:       []int64{1, 2},
		Scales:      []float64{0.5, 1},
		Params:      map[string][]float64{"k": {1, 3}},
	}.Jobs(), Sweep{Experiments: []string{"X2"}, Seeds: []int64{1, 2}}.Jobs()...)
	stems := profileStems(jobs)
	seen := make(map[string]int)
	for i, stem := range stems {
		if j, dup := seen[stem]; dup {
			t.Errorf("jobs %d and %d share profile stem %q", j, i, stem)
		}
		seen[stem] = i
		if strings.ContainsAny(stem, `/\|: `) {
			t.Errorf("stem %q is not filename-safe", stem)
		}
	}
	sort.Strings(stems)
	if stems[0] != "X1-0.5-k=1-s1" || stems[len(stems)-3] != "X1-1-k=3-s2" || stems[len(stems)-1] != "X2-s2" {
		t.Errorf("stems = %v", stems)
	}
}

// TestDeterminismAcrossParallelism is the harness contract: the same sweep
// aggregates byte-identically at any worker count.
func TestDeterminismAcrossParallelism(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"}, &fakeExp{id: "X2"})
	sweep := Sweep{
		Experiments: []string{"X1", "X2"},
		Seeds:       []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Scales:      []float64{0.5, 1},
		Params:      map[string][]float64{"k": {1, 3}},
	}
	var want []byte
	for _, workers := range []int{1, 2, 8, 32} {
		rep := Aggregate(runAll(reg, sweep.Jobs(), workers))
		got, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d aggregate differs from workers=1", workers)
		}
	}
}

// TestRealRegistryDeterminism drives the production registry through the
// runner at two worker counts and requires byte-identical aggregates.
func TestRealRegistryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real experiments are slow; skipped with -short")
	}
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	sweep := Sweep{
		Experiments: []string{"E01", "E11"},
		Seeds:       []int64{1, 2, 3},
		Scales:      []float64{0.2},
	}
	seq, err := Aggregate(runAll(reg, sweep.Jobs(), 1)).JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	par, err := Aggregate(runAll(reg, sweep.Jobs(), 8)).JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel aggregate differs from sequential")
	}
}

func TestAggregateMath(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"})
	jobs := Sweep{Experiments: []string{"X1"}, Seeds: []int64{1, 2, 3, 4}}.Jobs()
	rep := Aggregate(runAll(reg, jobs, 2))
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(rep.Groups))
	}
	g := rep.Groups[0]
	if g.Replications != 4 || len(g.Metrics) != 1 {
		t.Fatalf("group shape wrong: %+v", g)
	}
	m := g.Metrics[0]
	if m.Name != "tab | a | value" {
		t.Fatalf("metric name = %q", m.Name)
	}
	// Values are the seeds 1,2,3,4.
	if m.N != 4 || m.Mean != 2.5 || m.Min != 1 || m.Max != 4 {
		t.Fatalf("metric stats wrong: %+v", m)
	}
	wantStd := math.Sqrt(5.0 / 3.0)
	if math.Abs(m.Std-wantStd) > 1e-12 {
		t.Fatalf("stddev = %g, want %g", m.Std, wantStd)
	}
	wantCI := 3.182 * wantStd / 2 // t(df=3) * std / sqrt(4)
	if math.Abs(m.CI95-wantCI) > 1e-9 {
		t.Fatalf("ci95 = %g, want %g", m.CI95, wantCI)
	}
}

func TestAggregateMajorityVote(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"})
	// Seeds 1,2,3: odd-seed passes 2/3 -> majority verdict true.
	rep := Aggregate(runAll(reg, Sweep{Experiments: []string{"X1"}, Seeds: []int64{1, 2, 3}}.Jobs(), 2))
	c := rep.Groups[0].Checks[0]
	if c.Passes != 2 || c.N != 3 || !c.Verdict || !rep.Groups[0].Reproduced {
		t.Fatalf("majority vote wrong: %+v", c)
	}
	// Seeds 1..4: passes 2/4 is not a strict majority -> verdict false.
	rep = Aggregate(runAll(reg, Sweep{Experiments: []string{"X1"}, Seeds: []int64{1, 2, 3, 4}}.Jobs(), 2))
	c = rep.Groups[0].Checks[0]
	if c.Passes != 2 || c.N != 4 || c.Verdict || rep.Groups[0].Reproduced {
		t.Fatalf("tie should fail the vote: %+v", c)
	}
}

// metricExp records an explicit full-precision metric whose cross-seed
// spread is far below table-rendering precision (%.4g).
type metricExp struct{}

func (metricExp) ID() string    { return "XM" }
func (metricExp) Title() string { return "explicit metrics" }
func (metricExp) Claim() string { return "claim" }

func (metricExp) Run(cfg core.Config) (*core.Result, error) {
	r := &core.Result{ID: "XM", Title: "explicit metrics"}
	v := 123456 + float64(cfg.Seed)*1e-3
	t := metrics.NewTable("tab", "row", "value")
	t.AddRowf("a", v)
	r.Tables = append(r.Tables, t)
	r.AddMetric("exact", v)
	r.AddCheck(true, "ok", "fine")
	return r, nil
}

func TestExplicitMetricsKeepFullPrecision(t *testing.T) {
	reg := fakeRegistry(t, metricExp{})
	rep := Aggregate(runAll(reg, Sweep{Experiments: []string{"XM"}, Seeds: []int64{1, 2, 3}}.Jobs(), 2))
	g := rep.Groups[0]
	// Explicit metric first, then the table-derived one.
	if len(g.Metrics) != 2 || g.Metrics[0].Name != "exact" {
		t.Fatalf("metrics = %+v", g.Metrics)
	}
	if g.Metrics[0].Std == 0 {
		t.Fatal("explicit metric lost its cross-seed spread")
	}
	// The %.4g-rendered table cell collapses the same spread to zero —
	// the documented reason explicit metrics exist.
	if g.Metrics[1].Std != 0 {
		t.Fatalf("expected table-derived metric to quantize to stddev 0, got %g", g.Metrics[1].Std)
	}
	// CSV export must keep the full precision (not %.6g).
	if csv := rep.CSV(); !strings.Contains(csv, "123456.002") {
		t.Fatalf("csv lost metric precision:\n%s", csv)
	}
}

// dupRowExp emits a table whose first column repeats across rows (as E09
// does with alpha at different gammas); distinct rows must not merge.
type dupRowExp struct{}

func (dupRowExp) ID() string    { return "XD" }
func (dupRowExp) Title() string { return "dup rows" }
func (dupRowExp) Claim() string { return "claim" }

func (dupRowExp) Run(cfg core.Config) (*core.Result, error) {
	r := &core.Result{ID: "XD", Title: "dup rows"}
	t := metrics.NewTable("tab", "alpha", "revenue")
	t.AddRowf("0.3", 1.0)
	t.AddRowf("0.3", 100.0)
	r.Tables = append(r.Tables, t)
	r.AddCheck(true, "ok", "fine")
	return r, nil
}

func TestAggregateKeepsDuplicateRowKeysApart(t *testing.T) {
	reg := fakeRegistry(t, dupRowExp{})
	rep := Aggregate(runAll(reg, Sweep{Experiments: []string{"XD"}, Seeds: []int64{1, 2}}.Jobs(), 2))
	g := rep.Groups[0]
	if len(g.Metrics) != 2 {
		t.Fatalf("metrics = %d, want 2 (rows merged?): %+v", len(g.Metrics), g.Metrics)
	}
	first, second := g.Metrics[0], g.Metrics[1]
	if first.Name != "tab | 0.3 | revenue" || second.Name != "tab | 0.3 #2 | revenue" {
		t.Fatalf("metric names = %q, %q", first.Name, second.Name)
	}
	if first.N != 2 || first.Mean != 1 || second.N != 2 || second.Mean != 100 {
		t.Fatalf("per-row stats wrong: %+v", g.Metrics)
	}
}

func TestRunnerRejectsSeedZero(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"})
	results := runAll(reg, []Job{{ExperimentID: "X1", Config: core.Config{Seed: 0, Scale: 1}}}, 1)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "seed 0") {
		t.Fatalf("seed 0 job should error, got %+v", results[0])
	}
	if results[0].Result != nil {
		t.Fatal("seed 0 job should not produce a result")
	}
}

func TestRunnerRejectsBadScale(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"})
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		results := runAll(reg, []Job{{ExperimentID: "X1", Config: core.Config{Seed: 1, Scale: scale}}}, 1)
		if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "finite positive") {
			t.Fatalf("scale %g job should error, got %+v", scale, results[0])
		}
	}
}

func TestAggregateCollectsErrors(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1", errSeed: 2})
	rep := Aggregate(runAll(reg, Sweep{Experiments: []string{"X1"}, Seeds: []int64{1, 2, 3}}.Jobs(), 3))
	g := rep.Groups[0]
	if g.Replications != 3 || len(g.Errors) != 1 {
		t.Fatalf("error collection wrong: %+v", g)
	}
	if !strings.Contains(g.Errors[0], "seed 2") || !strings.Contains(g.Errors[0], "boom") {
		t.Fatalf("error text = %q", g.Errors[0])
	}
	if g.Metrics[0].N != 2 {
		t.Fatalf("failed run leaked into metrics: %+v", g.Metrics[0])
	}
	// The verdict line must not claim errored seeds voted.
	if text := rep.String(); !strings.Contains(text, "majority vote over 2 of 3 seeds; 1 errored") {
		t.Fatalf("verdict line misstates the vote:\n%s", text)
	}
}

func TestReportCSV(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1"})
	rep := Aggregate(runAll(reg, Sweep{Experiments: []string{"X1"}, Seeds: []int64{1, 2, 3}}.Jobs(), 1))
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// Header + 1 metric row + 1 check row.
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "experiment,scale,params,replications,kind,name") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.Contains(csv, "metric") || !strings.Contains(csv, "check") {
		t.Fatalf("csv missing kinds:\n%s", csv)
	}
}

func TestReportCSVIncludesErrors(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1", errSeed: 2})
	rep := Aggregate(runAll(reg, Sweep{Experiments: []string{"X1"}, Seeds: []int64{1, 2}}.Jobs(), 1))
	csv := rep.CSV()
	if !strings.Contains(csv, "error") || !strings.Contains(csv, "boom") {
		t.Fatalf("csv must carry errored runs:\n%s", csv)
	}
}

// TestVerdictThreeWay pins the one verdict vocabulary every surface
// renders, the text report included: a scenario whose every seed errored
// is ERROR there too, not NOT REPRODUCED.
func TestVerdictThreeWay(t *testing.T) {
	reg := fakeRegistry(t, &fakeExp{id: "X1", errSeed: 2})
	group := func(seeds ...int64) Group {
		return Aggregate(runAll(reg, Sweep{Experiments: []string{"X1"}, Seeds: seeds}.Jobs(), 1)).Groups[0]
	}
	for _, c := range []struct {
		g       Group
		verdict string
		passes  int
	}{
		{group(1, 3), "REPRODUCED", 1},
		{group(1, 4, 6), "NOT REPRODUCED", 0},
		{group(2), "ERROR", 0},
	} {
		if got := c.g.Verdict(); got != c.verdict {
			t.Errorf("seeds %v: Verdict() = %q, want %q", c.g.Seeds, got, c.verdict)
		}
		if got := c.g.Passes(); got != c.passes {
			t.Errorf("seeds %v: Passes() = %d, want %d", c.g.Seeds, got, c.passes)
		}
		if text := (&Report{Groups: []Group{c.g}}).String(); !strings.Contains(text, "verdict: "+c.verdict+" (") {
			t.Errorf("seeds %v: text report lacks verdict %q:\n%s", c.g.Seeds, c.verdict, text)
		}
	}
}
