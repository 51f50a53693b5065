// Command bench is the repository's performance ledger: one command that
// measures what a user of decentsim waits for — the simulations, a cold
// report, a warm report service — and attributes it to layers. See
// README.md in this directory; BENCHMARK.json at the repository root
// names the workloads and metrics and is rendered from table.go.
//
//	go run ./bench --workload dht-churn --seed 1 --seconds 10 --trace 0
//	go run ./bench -seed 1          # every workload, untraced then traced
//	go run ./bench -selfcheck       # two sets of ten seeds, compared
//	go run ./bench -update          # regenerate testdata/expected.json
//	go run ./bench -manifest        # print BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runOpts is the driver's contract: one workload, one seed, how long to
// keep measuring, and whether this is the traced run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// run is one workload run in this process.
type run struct {
	opts    runOpts
	sz      sizes
	sc      scenario
	exp     *expectations
	pinned  bool // full-scale inputs: the committed expectations apply
	out     *outcome
	tr      *tracer
	digests map[string]string // first digest seen per output, for pass-to-pass equality
	sink    int               // probe results land here so the compiler cannot drop the calls
}

func newRun(opts runOpts, sz sizes, exp *expectations) *run {
	return &run{
		opts:    opts,
		sz:      sz,
		sc:      newScenario(opts.workload, opts.seed, sz),
		exp:     exp,
		pinned:  sz.scale == full.scale && sz.serveScale == full.serveScale && sz.seeds == full.seeds,
		out:     newOutcome(),
		digests: make(map[string]string),
	}
}

func (r *run) newWorkload() workload {
	switch r.opts.workload {
	case wlReport:
		return &coldWorkload{serviceWorkload{r: r}}
	case wlServe:
		return &warmWorkload{serviceWorkload: serviceWorkload{r: r}}
	default:
		return &simWorkload{r: r}
	}
}

// workers is how many goroutines run experiments in the workload.
func (r *run) workers() int {
	if r.opts.workload == wlReport || r.opts.workload == wlServe {
		return 2
	}
	return 1
}

// execute sets the workload up (several times, for a median) and then
// measures it: repeated untraced passes for the end-to-end metrics, or one
// untraced and one traced pass plus the probes for the per-layer ones.
func (r *run) execute() error {
	w := r.newWorkload()
	defer w.close()
	setups := make([]float64, r.sz.setups)
	for i := range setups {
		w.close()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	if r.opts.trace {
		if err := r.traced(w); err != nil {
			return err
		}
		return r.out.complete(perLayer)
	}

	var walls []float64
	var last passResult
	for start := time.Now(); len(walls) == 0 || time.Since(start).Seconds() < r.opts.seconds; {
		p, err := w.pass(-1)
		if err != nil {
			return err
		}
		walls = append(walls, p.wall.Seconds())
		last = p
	}
	r.out.emit("wall_s", median(walls))
	r.out.emit("ops_per_s", float64(last.ops)/median(walls))
	r.out.emit("setup_s", median(setups))
	r.out.emit("output_bytes", float64(last.bytes))
	r.out.note("wall_s: median of %d timed passes of %d operations; setup_s: median of %d set-ups", len(walls), last.ops, len(setups))
	return r.out.complete(endToEnd)
}

// traced is the --trace 1 run.
func (r *run) traced(w workload) error {
	b := w.base()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := w.pass(-1)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	_, peakMB := rusage()
	r.out.emit("host.peak_rss_mb", peakMB)
	r.out.emit("host.allocs", float64(m1.Mallocs-m0.Mallocs))
	r.out.emit("host.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	r.out.emit("host.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.out.emit("host.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	r.tr = newTracer()
	b.rec.tr, b.rec.observe, b.rec.allocs = r.tr, true, r.workers() == 1
	sp := r.tr.begin("pass "+r.opts.workload, "bench", -1, 0)
	cpu0, _ := rusage()
	tracedPass, err := w.pass(sp)
	cpu1, _ := rusage()
	r.tr.end(sp)
	b.rec.tr, b.rec.observe, b.rec.allocs = nil, false, false
	if err != nil {
		return err
	}
	r.out.emit("harness.cpu_s", cpu1-cpu0)
	r.out.emit("obs.trace_overhead_frac", tracedPass.wall.Seconds()/plain.wall.Seconds()-1)
	r.out.emit("bench.span_coverage_frac", ratio(r.tr.covered()[sp].Seconds(), r.tr.dur(sp).Seconds()))
	if err := r.layerMetrics(b); err != nil {
		return err
	}

	fireNs, sendNs, err := r.probes(b.inner)
	if err != nil {
		return err
	}
	// Estimates until spans exist inside the program: the kernel's and the
	// transport's share of the pass, priced at the probes' per-event cost.
	simBusy := r.out.values["sim.events_fired"] * fireNs / 1e9
	netBusy := r.out.values["netmodel.msgs_sent"] * sendNs / 1e9
	r.out.emit("sim.est_busy_s", simBusy)
	r.out.emit("netmodel.est_busy_s", netBusy)
	r.out.emit("experiments.substrate.est_busy_s", max(r.out.values["harness.simulate_s"]-simBusy-netBusy, 0))

	return r.serviceProbe(b, r.sz.probeGETs)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded with every result: numbers from different boxes
// or toolchains do not compare.
type environment struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func environmentNow() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit}
}

// benchDir finds this directory from the working directory, which is the
// repository root under `go run ./bench` and this directory under go test.
func benchDir() string {
	if _, err := os.Stat("bench/testdata"); err == nil {
		return "bench"
	}
	return "."
}

func units() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		u[d.Name] = d.Unit
	}
	return u
}

// report prints the run for a reader, writes its files under out/, and
// ends with the one JSON line the driver parses.
func (r *run) report(env environment) error {
	unit := units()
	fmt.Printf("workload %s seed %d (base seed %d) trace %t\n", r.opts.workload, r.opts.seed, foldSeed(r.opts.seed), r.opts.trace)
	fmt.Printf("env %s nproc=%d GOMAXPROCS=%d commit=%s\n", env.GoVersion, env.NProc, env.GOMAXPROCS, env.Commit)
	fmt.Printf("load %d experiment goroutine(s); service traffic crosses loopback TCP in a closed loop of 2 keep-alive clients\n", r.workers())
	for _, n := range r.out.notes {
		fmt.Println("note", n)
	}
	res := result{Correct: r.out.failed == 0, Attempted: r.out.attempted, Failed: r.out.failed, Metrics: make(map[string]metricValue)}
	for _, name := range r.out.order {
		fmt.Printf("metric %-40s %16.6f %s\n", name, r.out.values[name], unit[name])
		res.Metrics[name] = metricValue{r.out.values[name], unit[name]}
	}
	fmt.Printf("metric %-40s %16.6f frac (%d of %d operations)\n", "failed_frac", ratio(float64(r.out.failed), float64(r.out.attempted)), r.out.failed, r.out.attempted)
	for _, f := range r.out.failures {
		fmt.Println("FAILED", f)
	}

	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.tr != nil {
		var trace bytes.Buffer
		if err := r.tr.writeChrome(&trace); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "trace-"+r.opts.workload+".json"), trace.Bytes(), 0o644); err != nil {
			return err
		}
		layers := r.tr.layers()
		if err := writeJSON(filepath.Join(dir, "layers-"+r.opts.workload+".json"), layers); err != nil {
			return err
		}
		for _, layer := range slices.Sorted(maps.Keys(layers)) {
			fmt.Printf("layer %-12s %6d spans %12.6f s self\n", layer, layers[layer].Spans, layers[layer].SelfS)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var opts runOpts
	trace := flag.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: traced pass and probes, per-layer metrics")
	flag.StringVar(&opts.workload, "workload", "", "workload to run in this process; empty runs all of them, each in a fresh process")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed; selects base seed 1 + (seed-1) mod 16")
	flag.Float64Var(&opts.seconds, "seconds", runSeconds, "keep repeating the timed pass until this many seconds have passed")
	update := flag.Bool("update", false, "regenerate testdata/expected.json")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of ten seeds per workload and compare them against the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as rendered from the metric tables")
	flag.Parse()
	opts.trace = *trace != 0

	err := func() error {
		switch {
		case *printManifest:
			_, err := os.Stdout.Write(manifest())
			return err
		case *update:
			return updateExpectations()
		case *selfcheck:
			return selfCheck()
		case opts.workload == "":
			return runAll(opts)
		}
		if !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == opts.workload }) {
			return fmt.Errorf("bench: unknown workload %q", opts.workload)
		}
		exp, err := loadExpectations()
		if err != nil {
			return err
		}
		r := newRun(opts, full, exp)
		if err := r.execute(); err != nil {
			return err
		}
		if err := r.report(environmentNow()); err != nil {
			return err
		}
		if r.out.failed > 0 {
			return fmt.Errorf("bench: %d of %d operations failed", r.out.failed, r.out.attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
