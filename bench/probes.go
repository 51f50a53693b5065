package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/overlay/kademlia"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
)

// recorder is the memoizing registry: it wraps every experiment of a
// registry so that each run is timed from here and its result kept, and
// can then replay those results instead of simulating. Replay makes
// report.Generate and a cold GET cost only aggregate + render + hash +
// serve, which is how the report and serve layers are measured apart from
// the simulations and how served bytes are checked against an offline
// tree without simulating twice.
type recorder struct {
	mu     sync.Mutex
	replay bool
	runs   map[string]*runRecord

	// Set only for a traced pass.
	tr      *tracer
	parent  int  // span the runs hang under
	observe bool // attach a fresh obs.Collector to every run
	allocs  bool // read the allocation counter around every run (one goroutine only)
}

// runRecord is one experiment run as seen from outside the program.
type runRecord struct {
	harness.JobResult
	start  time.Time
	allocs uint64
	col    *obs.Collector
}

// runKey identifies a run by scenario and seed.
func runKey(id string, cfg core.Config) string {
	return fmt.Sprintf("%s|seed=%d", harness.ScenarioKey(id, cfg.Scale, cfg.Params), cfg.Seed)
}

// reset forgets the recorded runs, before a pass.
func (rec *recorder) reset() {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.runs = make(map[string]*runRecord)
}

// wrap returns a registry of recording wrappers around the experiments of
// reg named by ids, in that order.
func (rec *recorder) wrap(reg *core.Registry, ids []string) (*core.Registry, error) {
	var exps []core.Experiment
	for _, id := range ids {
		e, err := reg.Get(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, memoExperiment{Experiment: e, section: core.SectionOf(e), rec: rec})
	}
	return core.NewRegistry(exps...)
}

// results returns the recorded runs of jobs, in job order, or an error
// naming the first job that never ran.
func (rec *recorder) results(jobs []harness.Job) ([]*runRecord, error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]*runRecord, len(jobs))
	for i, j := range jobs {
		r, ok := rec.runs[runKey(j.ExperimentID, j.Config.WithDefaults())]
		if !ok {
			return nil, fmt.Errorf("bench: job %s seed %d was never run", j.ExperimentID, j.Config.Seed)
		}
		out[i] = r
	}
	return out, nil
}

// memoExperiment forwards ID, Title and Claim by embedding and Section
// explicitly, so reports rendered from it match the real registry's.
type memoExperiment struct {
	core.Experiment
	section string
	rec     *recorder
}

func (m memoExperiment) Section() string { return m.section }

func (m memoExperiment) Run(cfg core.Config) (*core.Result, error) {
	rec := m.rec
	key := runKey(m.ID(), cfg)
	if rec.replay {
		rec.mu.Lock()
		r, ok := rec.runs[key]
		rec.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("bench: no recorded result for %s", key)
		}
		return r.Result, r.Err
	}
	r := &runRecord{JobResult: harness.JobResult{Job: harness.Job{ExperimentID: m.ID(), Config: cfg}}}
	if rec.observe && cfg.Obs == nil {
		r.col = obs.NewCollector()
		cfg.Obs = r.col
	}
	// The span also covers reading the allocation counter (a brief
	// stop-the-world), so that cost is not an unexplained gap in the pass;
	// Elapsed, which the per-experiment metrics use, does not.
	sp := rec.tr.begin(m.ID(), "experiments", rec.parent, int(cfg.Seed))
	var before uint64
	if rec.allocs {
		before = mallocs()
	}
	r.start = time.Now()
	r.Result, r.Err = m.Experiment.Run(cfg)
	r.Elapsed = time.Since(r.start)
	if rec.allocs {
		r.allocs = mallocs() - before
	}
	rec.tr.end(sp)
	rec.mu.Lock()
	rec.runs[key] = r
	rec.mu.Unlock()
	return r.Result, r.Err
}

// Probe sizes. They are constants, not flags: a probe's number is only
// comparable between commits when its size never moves.
const (
	probeEvents     = 1_000_000 // kernel events per schedule/fire probe
	probeSends      = 500_000   // netmodel.Send calls
	probeBroadcasts = 4_000     // netmodel.Broadcast calls, 64 nodes each
	probeNodes      = 600       // Kademlia network size, E15's default
	probeLookups    = 400       // Kademlia lookups, rejoins and Closest rounds
	probePoints     = 10_000    // observations per quantile-accumulator probe
	probeKeys       = 20_000    // serve.Key calls
)

// probe times fn reps times under one span and returns the median
// duration of a repetition.
func (r *run) probe(name, layer string, reps int, fn func()) time.Duration {
	sp := r.tr.begin(name, layer, -1, 0)
	defer r.tr.end(sp)
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// perOp emits d/n in nanoseconds scaled by unit (1 for ns, 1e3 for us …)
// and notes the sample count.
func (r *run) perOp(name string, d time.Duration, n int, unit float64) float64 {
	v := float64(d) / float64(n) / unit
	r.out.emit(name, v)
	r.out.note("probe %s: %d operations x %d repetitions", name, n, r.sz.probeReps)
	return v
}

// probes runs every layer micro-probe. It returns the kernel and transport
// per-operation costs the busy-time estimates are built from.
func (r *run) probes(reg *core.Registry) (fireNs, sendNs float64, err error) {
	div, reps := r.sz.probeDiv, r.sz.probeReps

	// internal/sim: closure events, cancelled events, pooled handler events.
	events := probeEvents / div
	s := sim.New(sim.WithSeed(1))
	fired := 0
	fn := func() { fired++ }
	const batch = 1000
	d := r.probe("schedule_fire", "sim", reps, func() {
		for done := 0; done < events; done += batch {
			for i := 0; i < batch; i++ {
				s.After(time.Duration(i%97)*time.Microsecond, fn)
			}
			if e := s.Run(); e != nil {
				err = e
			}
		}
	})
	fireNs = r.perOp("sim.schedule_fire_ns", d, events, 1)
	d = r.probe("schedule_cancel", "sim", reps, func() {
		for i := 0; i < events; i++ {
			s.After(time.Second, fn).Cancel()
		}
	})
	r.perOp("sim.schedule_cancel_ns", d, events, 1)
	h := func(p sim.Payload) { fired += int(p.A) }
	d = r.probe("afterfunc_fire", "sim", reps, func() {
		for done := 0; done < events; done += batch {
			for i := 0; i < batch; i++ {
				s.AfterFunc(time.Duration(i%97)*time.Microsecond, h, sim.Payload{A: 1})
			}
			if e := s.Run(); e != nil {
				err = e
			}
		}
	})
	r.perOp("sim.afterfunc_fire_ns", d, events, 1)
	r.sink += fired
	if err != nil {
		return 0, 0, fmt.Errorf("bench: kernel probe: %w", err)
	}

	// Sharded kernel: E03 is its one customer. The two runs must agree
	// byte for byte (the shard-count invisibility contract).
	cfg := core.Config{Seed: r.sc.seeds[0], Scale: r.sz.scale}
	var out [2][]byte
	var walls [2]time.Duration
	for i, shards := range []int{1, 2} {
		cfg.Shards = shards
		walls[i] = r.probe(fmt.Sprintf("E03 shards=%d", shards), "sim", 1, func() {
			var res *core.Result
			if res, err = reg.Run("E03", cfg); err == nil {
				out[i], err = res.JSON()
			}
		})
		if err != nil {
			return 0, 0, fmt.Errorf("bench: shard probe: %w", err)
		}
	}
	r.out.op(string(out[0]) == string(out[1]), "E03 result differs between Shards 1 and 2")
	r.out.emit("sim.shard_speedup_w2", float64(walls[0])/float64(walls[1]))
	r.out.note("probe sim.shard_speedup_w2: 1 run of E03 per shard count")

	// internal/netmodel.
	sends := probeSends / div
	ns := sim.New(sim.WithSeed(1))
	nm := netmodel.New(ns)
	ids := make([]netmodel.NodeID, 64)
	for i := range ids {
		ids[i] = nm.AddNode(netmodel.Region(i%netmodel.NumRegions+1), 0)
	}
	delivered := 0
	deliver := func() { delivered++ }
	d = r.probe("send", "netmodel", reps, func() {
		for done := 0; done < sends; done += batch {
			for i := 0; i < batch; i++ {
				nm.Send(ids[i%64], ids[(i+1)%64], 100, deliver)
			}
			if e := ns.Run(); e != nil {
				err = e
			}
		}
	})
	sendNs = r.perOp("netmodel.send_ns", d, sends, 1)
	casts := probeBroadcasts / div
	deliverTo := func(netmodel.NodeID) { delivered++ }
	d = r.probe("broadcast", "netmodel", reps, func() {
		for i := 0; i < casts; i++ {
			nm.Broadcast(ids[i%64], 1000, deliverTo)
			if e := ns.Run(); e != nil {
				err = e
			}
		}
	})
	r.perOp("netmodel.broadcast_ns_per_peer", d, casts*(len(ids)-1), 1)
	r.sink += delivered
	if err != nil {
		return 0, 0, fmt.Errorf("bench: transport probe: %w", err)
	}

	if err := r.overlayProbes(div, reps); err != nil {
		return 0, 0, err
	}

	// internal/metrics and internal/obs: add + quantile over probePoints.
	points := probePoints / div
	g := sim.NewRNG(1)
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = g.Float64() * 1e9
	}
	d = r.probe("sample_percentile", "metrics", reps, func() {
		var sm metrics.Sample
		for _, x := range xs {
			sm.Add(x)
		}
		r.sink += int(sm.Percentile(50) + sm.Percentile(99))
	})
	r.perOp("metrics.sample_percentile_ns", d, points, 1)
	d = r.probe("hist_observe", "obs", reps, func() {
		hist := obs.NewCollector().Histogram("probe")
		for _, x := range xs {
			hist.Observe(int64(x))
		}
		r.sink += int(hist.Quantile(0.5) + hist.Quantile(0.99))
	})
	r.perOp("obs.hist_observe_ns", d, points, 1)

	// internal/serve: the scenario cache key, over the ids the server's
	// normalization would have filled in.
	keys := probeKeys / div
	opts := r.sc.options(2)
	opts.IDs = r.sc.ids
	d = r.probe("key", "serve", reps, func() {
		for i := 0; i < keys; i++ {
			r.sink += len(serve.Key(opts))
		}
	})
	r.perOp("serve.key_ns", d, keys, 1)
	return fireNs, sendNs, nil
}

// overlayProbes measures Kademlia on a bootstrapped network built the way
// E15 builds it. Closest, lookup and CloserXOR are the read side; table
// Add, Rejoin and Bootstrap the write side, which must not rise when the
// read side falls.
func (r *run) overlayProbes(div, reps int) error {
	nodes, lookups := probeNodes/div, probeLookups/div
	s := sim.New(sim.WithSeed(1))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw := kademlia.NewNetwork(s, nm, kademlia.Config{K: 8, Alpha: 3, RPCTimeout: 2 * time.Second})
	for i := 0; i < nodes; i++ {
		nw.AddNode(netmodel.Europe)
	}
	var err error
	d := r.probe("bootstrap", "overlay", 1, func() { err = nw.Bootstrap() })
	if err != nil {
		return fmt.Errorf("bench: overlay probe: %w", err)
	}
	r.out.emit("overlay.kademlia.bootstrap_ms", d.Seconds()*1e3)
	r.out.note("probe overlay.kademlia.bootstrap_ms: 1 bootstrap of %d nodes", nodes)

	g := sim.NewRNG(2)
	targets := make([]overlay.ID, lookups)
	for i := range targets {
		targets[i] = overlay.RandomID(g)
	}
	all := nw.Nodes()
	d = r.probe("closest", "overlay", reps, func() {
		for i, t := range targets {
			r.sink += len(all[i%nodes].Table().Closest(t, 8))
		}
	})
	r.perOp("overlay.kademlia.closest_ns", d, lookups, 1)

	const xorRounds = 200
	d = r.probe("closerxor", "overlay", reps, func() {
		for round := 0; round < xorRounds; round++ {
			for i := 1; i < len(targets); i++ {
				if overlay.CloserXOR(targets[0], targets[i-1], targets[i]) {
					r.sink++
				}
			}
		}
	})
	r.perOp("overlay.id.closerxor_ns", d, xorRounds*(lookups-1), 1)

	contacts := all[0].Table().Contacts()
	for _, n := range all[1:] {
		contacts = append(contacts, kademlia.Contact{ID: n.ID, Addr: n.Addr})
	}
	const addRounds = 50
	d = r.probe("table_add", "overlay", reps, func() {
		for round := 0; round < addRounds; round++ {
			t := kademlia.NewTable(all[0].ID, 8)
			for _, c := range contacts {
				t.Add(c)
			}
			r.sink += t.Size()
		}
	})
	r.perOp("overlay.kademlia.table_add_ns", d, addRounds*len(contacts), 1)

	// Lookups and rejoins advance virtual time; host time is what is read.
	found := 0
	d = r.probe("lookup", "overlay", reps, func() {
		for i, t := range targets {
			nw.Lookup(all[i%nodes], t, func(res kademlia.Result) { found += len(res.Closest) })
			if e := s.Run(); e != nil {
				err = e
			}
		}
	})
	r.perOp("overlay.kademlia.lookup_host_us", d, lookups, 1e3)
	d = r.probe("rejoin", "overlay", reps, func() {
		for i := 0; i < lookups; i++ {
			n := all[(i*7)%nodes]
			nw.SetOnline(n, false)
			nw.Rejoin(n, nil)
			if e := s.Run(); e != nil {
				err = e
			}
		}
	})
	r.perOp("overlay.kademlia.rejoin_host_us", d, lookups, 1e3)
	r.sink += found
	if err != nil {
		return fmt.Errorf("bench: overlay probe: %w", err)
	}
	return nil
}

// serviceProbe measures internal/report and internal/serve on the replayed
// results of the pass just run: rendering without and with HTML, one cold
// GET, then a closed loop of warm GETs from 2 keep-alive clients whose
// bodies are compared with the offline tree.
func (r *run) serviceProbe(b *base, gets int) error {
	b.rec.replay = true
	defer func() { b.rec.replay = false }()
	opts := r.sc.options(2)
	opts.HTML = false
	var err error
	var tree *report.Tree
	reps := r.sz.probeReps
	render := r.probe("Generate markdown", "report", reps, func() { tree, err = report.Generate(b.reg, opts) })
	if err != nil {
		return fmt.Errorf("bench: render probe: %w", err)
	}
	opts.HTML = true
	full := r.probe("Generate markdown+html", "report", reps, func() { tree, err = report.Generate(b.reg, opts) })
	if err != nil {
		return fmt.Errorf("bench: render probe: %w", err)
	}
	r.out.emit("report.render_ms", render.Seconds()*1e3)
	r.out.emit("report.html_ms", max(full-render, 0).Seconds()*1e3)
	r.out.emit("report.tree_files", float64(len(tree.Files)))
	r.out.emit("report.tree_bytes", float64(treeBytes(tree)))
	r.out.note("probe report.*: %d generations each, %d files", reps, len(tree.Files))

	svc, err := startService(b.reg, opts, r.sz.clients)
	if err != nil {
		return err
	}
	defer svc.stop()
	miss := r.probe("GET /report (replayed, miss)", "serve", 1, func() {
		r.out.op(svc.check(svc.clients[0], "/report", "miss", tree) == nil, "replayed cold GET /report failed")
	})
	r.out.emit("serve.miss_ms", miss.Seconds()*1e3)

	urls := treeURLs(tree, r.sc.ids, r.opts.seed)
	sp := r.tr.begin("warm loop (replayed)", "bench", -1, 0)
	warm := svc.warmPass(r.tr, sp, urls, gets, tree)
	r.tr.end(sp)
	r.out.ops(gets, warm.failed, "replayed warm GETs failed")
	sort.Float64s(warm.lats)
	r.out.emit("serve.hit_p50_us", quantile(warm.lats, 0.50)/1e3)
	r.out.emit("serve.hit_p99_us", quantile(warm.lats, 0.99)/1e3)
	r.out.emit("serve.warm_rps", float64(gets)/warm.wall.Seconds())
	r.out.note("probe serve.hit_*: %d warm GETs over %d URLs, closed loop, %d clients, loopback TCP", gets, len(urls), r.sz.clients)

	st := svc.srv.Stats()
	r.out.emit("serve.cache_hits", float64(st.Hits))
	r.out.emit("serve.cache_misses", float64(st.Misses))
	r.out.emit("serve.sweeps", float64(st.Sweeps))
	r.out.emit("serve.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	return nil
}
