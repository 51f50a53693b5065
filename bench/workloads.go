package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/report"
)

// sizes are the knobs the smoke test shrinks; every real run uses full.
type sizes struct {
	scale      float64 // experiment scale of the timed passes
	serveScale float64 // scale of the tree serve-warm caches
	seeds      int     // seeds per scenario
	setups     int     // set-ups per run; the median is reported
	clients    int     // concurrent keep-alive connections to the service
	warmGETs   int     // serve-warm requests per pass
	probeGETs  int     // warm requests of the per-layer service probe
	probeDiv   int     // divisor applied to the probe sizes in probes.go
	probeReps  int     // repetitions per probe; the median is reported
}

var full = sizes{scale: 1, serveScale: 0.1, seeds: 3, setups: 5, clients: 2, warmGETs: 20000, probeGETs: 4000, probeDiv: 1, probeReps: 5}

// warmupScale is the scale of the untimed warm-up pass inside set-up.
const warmupScale = 0.1

// seedFold bounds the distinct inputs: --seed n selects base seed
// 1 + (n-1) mod seedFold, and a scenario runs seeds base..base+2. Every
// input the benchmark can generate is therefore covered by the committed
// shape expectations (testdata/expected.json), so no seed the driver picks
// can turn a seed-sensitive verdict into a failed operation.
const seedFold = 16

func foldSeed(n int64) int64 {
	return 1 + ((n-1)%seedFold+seedFold)%seedFold
}

// scenario is a workload's generated input: which experiments run, with
// which seeds, scale and pinned knobs. The program sees only the
// core.Configs and report.Options derived from it.
type scenario struct {
	ids    []string
	seeds  []int64
	scale  float64
	params map[string]float64
}

func newScenario(workload string, seed int64, sz sizes) scenario {
	sc := scenario{scale: sz.scale}
	for i := 0; i < sz.seeds; i++ {
		sc.seeds = append(sc.seeds, foldSeed(seed)+int64(i))
	}
	switch workload {
	case wlChurn:
		sc.ids = []string{"E15"}
	case wlStatic:
		sc.ids = []string{"E03", "E04"}
		sc.params = map[string]float64{"e03.lookups": 1500, "e04.lookups": 300}
	case wlNonDHT:
		for _, id := range experimentIDs {
			if id != "E03" && id != "E04" && id != "E15" {
				sc.ids = append(sc.ids, id)
			}
		}
	case wlReport:
		sc.ids = experimentIDs
	case wlServe:
		// The hit path does not depend on what the simulations cost, so
		// the cached tree is generated small and from one seed.
		sc.ids, sc.scale, sc.seeds = experimentIDs, sz.serveScale, sc.seeds[:1]
	}
	return sc
}

// sweep spells the scenario the way report.Generate does, so that jobs
// built here and jobs the service builds carry identical configs.
func (sc scenario) sweep() harness.Sweep {
	sw := harness.Sweep{Experiments: sc.ids, Seeds: sc.seeds, Scales: []float64{sc.scale}, Shards: 1}
	if len(sc.params) > 0 {
		sw.Params = make(map[string][]float64, len(sc.params))
		for name, v := range sc.params {
			sw.Params[name] = []float64{v}
		}
	}
	return sw
}

// options spells the scenario for report.Generate and serve.New. It names
// no experiment ids, which means every experiment of the registry: the
// registry they are given holds exactly the scenario's (recorder.wrap).
func (sc scenario) options(workers int) report.Options {
	return report.Options{Seeds: sc.seeds, Scale: sc.scale, Params: sc.params, HTML: true, Workers: workers, Shards: 1}
}

// validate is set-up's knob check: every pinned knob is registered, in
// range, and owned by a selected experiment.
func (sc scenario) validate() error {
	specs := experiments.KnobSpecs()
	for name, v := range sc.params {
		spec, ok := specs[name]
		if !ok {
			return fmt.Errorf("bench: knob %s is not registered", name)
		}
		if v < spec.Min || v > spec.Max {
			return fmt.Errorf("bench: knob %s=%g outside [%g, %g]", name, v, spec.Min, spec.Max)
		}
	}
	return sc.sweep().Validate()
}

// base is what every workload's set-up builds: the recording registry over
// the real one and the scenario's job list.
type base struct {
	inner *core.Registry // the program's own registry
	reg   *core.Registry // recording wrappers around inner
	rec   *recorder
	jobs  []harness.Job
}

// setupBase is the set-up shared by all workloads: registry build, knob
// validation, and one untimed warm-up pass at warmupScale on the first
// seed (skipped where the scenario itself already runs at that scale).
func setupBase(sc scenario) (*base, error) {
	inner, err := experiments.Registry()
	if err != nil {
		return nil, fmt.Errorf("bench: registry: %w", err)
	}
	b := &base{inner: inner, rec: &recorder{}}
	b.rec.reset()
	if b.reg, err = b.rec.wrap(inner, sc.ids); err != nil {
		return nil, fmt.Errorf("bench: registry: %w", err)
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	b.jobs = sc.sweep().Jobs()
	if sc.scale != warmupScale {
		warm := sc
		warm.scale, warm.seeds = warmupScale, sc.seeds[:1]
		for _, j := range warm.sweep().Jobs() {
			if _, err := b.reg.Run(j.ExperimentID, j.Config); err != nil {
				return nil, fmt.Errorf("bench: warm-up %s: %w", j.ExperimentID, err)
			}
		}
		b.rec.reset()
	}
	return b, nil
}

// passResult is one timed pass: its wall time, how many operations it
// completed, and how many bytes of output it produced.
type passResult struct {
	wall  time.Duration
	ops   int
	bytes int64
}

// workload is one of the five. setup does one complete set-up and leaves
// the workload ready; pass runs the fixed work once and checks its output;
// close releases what setup started.
type workload interface {
	setup() error
	pass(parent int) (passResult, error)
	base() *base
	close()
}

// simWorkload runs the scenario's jobs one after another on the calling
// goroutine through core.Registry.Run.
type simWorkload struct {
	r *run
	b *base
}

func (w *simWorkload) setup() (err error) { w.b, err = setupBase(w.r.sc); return err }
func (w *simWorkload) base() *base        { return w.b }
func (w *simWorkload) close()             {}

func (w *simWorkload) pass(parent int) (passResult, error) {
	w.b.rec.reset()
	w.b.rec.parent = parent
	t0 := time.Now()
	for _, j := range w.b.jobs {
		// The recorder keeps the result and the error; checkRuns counts both.
		_, _ = w.b.reg.Run(j.ExperimentID, j.Config)
	}
	res := passResult{wall: time.Since(t0), ops: len(w.b.jobs)}
	var err error
	res.bytes, err = w.r.checkRuns(w.b)
	return res, err
}

// serviceWorkload is what the two service workloads share: the base and
// the report service over its recording registry, reached through the
// public handler on a loopback listener with 2 harness workers.
type serviceWorkload struct {
	r   *run
	b   *base
	svc *service
}

func (w *serviceWorkload) base() *base { return w.b }

func (w *serviceWorkload) setup() (err error) {
	if w.b, err = setupBase(w.r.sc); err != nil {
		return err
	}
	return w.start()
}

func (w *serviceWorkload) start() (err error) {
	w.svc, err = startService(w.b.reg, w.r.sc.options(2), w.r.sz.clients)
	return err
}

func (w *serviceWorkload) close() {
	if w.svc != nil {
		w.svc.stop()
		w.svc = nil
	}
}

// coldWorkload times one cold GET /report: every job runs on the service's
// harness workers, then aggregate, render, hash and serve.
type coldWorkload struct{ serviceWorkload }

func (w *coldWorkload) pass(parent int) (passResult, error) {
	if w.svc == nil {
		// A second pass needs a cold cache again: a fresh service.
		if err := w.start(); err != nil {
			return passResult{}, err
		}
	}
	defer w.close()
	w.b.rec.reset()
	sp := w.r.tr.begin("GET /report (miss)", "serve", parent, 0)
	w.b.rec.parent = sp
	t0 := time.Now()
	body, lane, err := w.svc.get(w.svc.clients[0], "/report")
	res := passResult{wall: time.Since(t0), ops: len(w.b.jobs)}
	w.r.tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("bench: cold GET /report: %w", err)
	}
	if _, err := w.r.checkRuns(w.b); err != nil {
		return res, err
	}
	tree, err := w.r.offlineTree(w.b)
	if err != nil {
		return res, err
	}
	err = checkServed("/report", lane, "miss", body, tree.Lookup("index.html"))
	w.r.out.op(err == nil, "%v", err)
	// Every other way into the tree must now hit the cache and match.
	for _, u := range treeURLs(tree, w.r.sc.ids, w.r.opts.seed) {
		err := w.svc.check(w.svc.clients[0], u, "hit", tree)
		w.r.out.op(err == nil, "%v", err)
	}
	res.bytes = treeBytes(tree)
	return res, nil
}

// warmWorkload fills the service's cache during set-up and times closed
// loops of warm GETs over every artifact.
type warmWorkload struct {
	serviceWorkload
	tree *report.Tree
	urls []string
}

func (w *warmWorkload) setup() error {
	if err := w.serviceWorkload.setup(); err != nil {
		return err
	}
	// The fill is this workload's only simulation, so a traced run
	// observes it here; the timed passes never reach the kernel.
	w.b.rec.observe = w.r.opts.trace
	_, _, err := w.svc.get(w.svc.clients[0], "/report")
	w.b.rec.observe = false
	if err != nil {
		return fmt.Errorf("bench: cache fill: %w", err)
	}
	return nil
}

func (w *warmWorkload) pass(parent int) (passResult, error) {
	if w.tree == nil {
		if _, err := w.r.checkRuns(w.b); err != nil {
			return passResult{}, err
		}
		var err error
		if w.tree, err = w.r.offlineTree(w.b); err != nil {
			return passResult{}, err
		}
		w.urls = treeURLs(w.tree, w.r.sc.ids, w.r.opts.seed)
	}
	wr := w.svc.warmPass(w.r.tr, parent, w.urls, w.r.sz.warmGETs, w.tree)
	w.r.out.ops(w.r.sz.warmGETs, wr.failed, "warm GETs failed (status, cache lane or body)")
	return passResult{wall: wr.wall, ops: w.r.sz.warmGETs, bytes: wr.bytes}, nil
}

// offlineTree renders the scenario's report from the recorded results —
// the tree `decentsim report -html` writes for the same options — and, on
// the pinned seed, checks its manifest digest.
func (r *run) offlineTree(b *base) (*report.Tree, error) {
	b.rec.replay = true
	defer func() { b.rec.replay = false }()
	tree, err := report.Generate(b.reg, r.sc.options(2))
	if err != nil {
		return nil, fmt.Errorf("bench: offline report: %w", err)
	}
	r.checkDigest("tree|"+r.opts.workload, tree.Lookup("manifest.json"))
	return tree, nil
}

// checkRuns checks every job of the pass just run and returns the bytes
// of result JSON produced. Per job: it ran without error; its JSON equals
// the first pass's (passes repeat the same inputs, and a traced pass must
// not change a byte); on the pinned seed its SHA-256 equals the committed
// one; and Reproduced() matches the committed per-experiment expectation.
func (r *run) checkRuns(b *base) (int64, error) {
	recs, err := b.rec.results(b.jobs)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, rec := range recs {
		id := rec.Job.ExperimentID
		r.out.op(rec.Err == nil, "%s seed %d: %v", id, rec.Job.Config.Seed, rec.Err)
		if rec.Err != nil {
			continue
		}
		data, err := rec.Result.JSON()
		if err != nil {
			return 0, fmt.Errorf("bench: encode %s: %w", id, err)
		}
		total += int64(len(data))
		r.checkDigest(runKey(id, rec.Job.Config), data)
		if r.pinned && r.opts.workload != wlServe {
			r.exp.checkShape(r.out, harness.ScenarioKey(id, rec.Job.Config.Scale, rec.Job.Config.Params), rec.Job.Config.Seed, rec.Result.Reproduced())
		}
	}
	return total, nil
}

// checkDigest compares data's SHA-256 with the first one seen under key in
// this run and, on the pinned seed at full scale, with the committed one.
func (r *run) checkDigest(key string, data []byte) {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if first, ok := r.digests[key]; ok {
		r.out.op(got == first, "%s: output differs between passes of one run", key)
	} else {
		r.digests[key] = got
	}
	if r.pinned && foldSeed(r.opts.seed) == r.exp.Seed {
		r.exp.checkDigest(r.out, key, got)
	}
}

// layerMetrics turns the traced pass's recorded runs into the per-layer
// numbers: kernel and transport counts from each run's collector, and
// per-experiment and harness figures from the spans around each run.
func (r *run) layerMetrics(b *base) error {
	recs, err := b.rec.results(b.jobs)
	if err != nil {
		return err
	}
	var fired, sent, delivered, dropped uint64
	maxPending := 0
	wall := make(map[string]float64)
	allocs := make(map[string]uint64)
	var sum, longest time.Duration
	first, last := recs[0].start, recs[0].start
	for _, rec := range recs {
		snap := rec.col.Snapshot()
		fired += snap.Sim.Fired
		maxPending = max(maxPending, snap.Sim.MaxPending)
		for _, c := range snap.Counters {
			switch {
			case c.Name == "net.msgs_sent":
				sent += c.Total
			case c.Name == "net.msgs_delivered":
				delivered += c.Total
			case strings.HasPrefix(c.Name, "net.drop_"):
				dropped += c.Total
			}
		}
		wall[rec.Job.ExperimentID] += rec.Elapsed.Seconds()
		allocs[rec.Job.ExperimentID] += rec.allocs
		sum += rec.Elapsed
		longest = max(longest, rec.Elapsed)
		if rec.start.Before(first) {
			first = rec.start
		}
		if end := rec.start.Add(rec.Elapsed); end.After(last) {
			last = end
		}
	}
	o := r.out
	o.emit("sim.events_fired", float64(fired))
	o.emit("sim.max_pending", float64(maxPending))
	o.emit("sim.events_per_s", ratio(float64(fired), sum.Seconds()))
	o.emit("netmodel.msgs_sent", float64(sent))
	o.emit("netmodel.msgs_delivered", float64(delivered))
	o.emit("netmodel.msgs_dropped", float64(dropped))
	o.emit("netmodel.delivered_frac", ratio(float64(delivered), float64(sent)))
	for _, id := range experimentIDs {
		o.emit("experiments."+id+".wall_s", wall[id])
		o.emit("experiments."+id+".allocs", float64(allocs[id]))
	}
	simulate := last.Sub(first)
	o.emit("harness.simulate_s", simulate.Seconds())
	o.emit("harness.jobs", float64(len(recs)))
	o.emit("harness.longest_job_s", longest.Seconds())
	o.emit("harness.parallel_efficiency", ratio(sum.Seconds(), float64(r.workers())*simulate.Seconds()))

	results := make([]harness.JobResult, len(recs))
	for i, rec := range recs {
		results[i] = rec.JobResult
	}
	sp := r.tr.begin("AggregateView", "harness", -1, 0)
	t0 := time.Now()
	views := harness.AggregateView(results)
	o.emit("harness.aggregate_ms", time.Since(t0).Seconds()*1e3)
	r.tr.end(sp)
	o.op(len(views) == len(r.sc.ids), "AggregateView returned %d groups for %d scenarios", len(views), len(r.sc.ids))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// rusage returns the process's CPU seconds so far and its high-water
// resident set in MB (ru_maxrss is in KB on Linux).
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
