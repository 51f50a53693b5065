package main

import (
	"encoding/json"
	"fmt"
)

// This file is the single source for the benchmark's vocabulary: the
// workloads, the end-to-end metrics with their regression bounds, and the
// per-layer metrics. BENCHMARK.json at the repository root is rendered
// from these tables (`go run ./bench -manifest`), and bench_test.go fails
// when the two drift apart.

// runSeconds is how long one run keeps repeating its timed pass. A pass
// is fixed work, so a pass longer than this runs exactly once.
const runSeconds = 10

// metricDef names one metric. Bound is the share of the parent commit's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none. Exact marks counts that are a pure function of the seed and so
// repeat bit-for-bit between runs of one commit — the only per-layer
// numbers a later claim may rest on without a paired measurement.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system waits for or pays. Every
// workload reports every one of them, with --trace 0.
//
// The host-time bounds are as wide as the contract allows because the
// reference box is: identical CPU-bound runs fall into two regimes about
// 9% apart that switch on a minute's timescale, so ten runs of one
// workload spread by 4-14% (interquartile range over median) whatever the
// benchmark does within a run. README.md has the measured spreads.
var endToEnd = []metricDef{
	// Median wall time of one timed pass of the workload's fixed work.
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	// Operations (experiment runs, or warm HTTP requests on serve-warm) of
	// one pass per host second of the median pass.
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	// Median of the run's repeated set-ups: registry build, knob
	// validation, one warm-up pass at scale 0.1, and for the service
	// workloads the listener coming up (serve-warm: plus the cache fill).
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	// Bytes of verified output one pass produces (result JSON, report
	// tree, or served bodies). Exact for a seed: a "speed-up" that
	// renders less shows here.
	{Name: "output_bytes", Unit: "bytes", Better: higher, Bound: 0.02, Exact: true},
}

// experimentIDs are the registry's experiments in paper order; the
// per-experiment layer metrics are generated from it.
var experimentIDs = []string{
	"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
}

// perLayer lists the metrics of single layers (layer = module name), all
// reported with --trace 1. README.md records which end-to-end metric each
// one should move, and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// internal/sim — counts from obs.Collector.Snapshot over the traced
		// pass, probes over probeEvents events.
		{Name: "sim.events_fired", Unit: "count", Better: lower, Exact: true},
		{Name: "sim.max_pending", Unit: "count", Better: lower, Exact: true},
		{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
		{Name: "sim.schedule_fire_ns", Unit: "ns", Better: lower},
		{Name: "sim.schedule_cancel_ns", Unit: "ns", Better: lower},
		{Name: "sim.afterfunc_fire_ns", Unit: "ns", Better: lower},
		{Name: "sim.est_busy_s", Unit: "s", Better: lower},
		{Name: "sim.shard_speedup_w2", Unit: "x", Better: higher},

		// internal/netmodel.
		{Name: "netmodel.msgs_sent", Unit: "count", Better: lower, Exact: true},
		{Name: "netmodel.msgs_delivered", Unit: "count", Better: lower, Exact: true},
		{Name: "netmodel.msgs_dropped", Unit: "count", Better: lower, Exact: true},
		{Name: "netmodel.delivered_frac", Unit: "frac", Better: higher, Exact: true},
		{Name: "netmodel.send_ns", Unit: "ns", Better: lower},
		{Name: "netmodel.broadcast_ns_per_peer", Unit: "ns", Better: lower},
		{Name: "netmodel.est_busy_s", Unit: "s", Better: lower},

		// internal/overlay — probes on a bootstrapped probeNodes network.
		{Name: "overlay.kademlia.closest_ns", Unit: "ns", Better: lower},
		{Name: "overlay.kademlia.lookup_host_us", Unit: "us", Better: lower},
		{Name: "overlay.id.closerxor_ns", Unit: "ns", Better: lower},
		{Name: "overlay.kademlia.table_add_ns", Unit: "ns", Better: lower},
		{Name: "overlay.kademlia.rejoin_host_us", Unit: "us", Better: lower},
		{Name: "overlay.kademlia.bootstrap_ms", Unit: "ms", Better: lower},
	}
	// internal/experiments — host seconds and heap allocations spent in
	// each experiment during the traced pass, all seeds together; 0 for an
	// experiment the workload does not run. Allocations are attributed
	// only where the pass runs on one goroutine.
	for _, id := range experimentIDs {
		m = append(m, metricDef{Name: "experiments." + id + ".wall_s", Unit: "s", Better: lower})
	}
	for _, id := range experimentIDs {
		m = append(m, metricDef{Name: "experiments." + id + ".allocs", Unit: "count", Better: lower})
	}
	return append(m, []metricDef{
		{Name: "experiments.substrate.est_busy_s", Unit: "s", Better: lower},

		// internal/harness — from the spans around each experiment run.
		{Name: "harness.simulate_s", Unit: "s", Better: lower},
		{Name: "harness.cpu_s", Unit: "s", Better: lower},
		{Name: "harness.jobs", Unit: "count", Better: higher, Exact: true},
		{Name: "harness.longest_job_s", Unit: "s", Better: lower},
		{Name: "harness.parallel_efficiency", Unit: "frac", Better: higher},
		{Name: "harness.aggregate_ms", Unit: "ms", Better: lower},

		// internal/report and internal/serve — measured on a memoizing
		// registry that replays the pass's results, so generation costs
		// only aggregate + render + hash + serve.
		{Name: "report.render_ms", Unit: "ms", Better: lower},
		{Name: "report.html_ms", Unit: "ms", Better: lower},
		{Name: "report.tree_files", Unit: "count", Better: higher, Exact: true},
		{Name: "report.tree_bytes", Unit: "bytes", Better: higher, Exact: true},
		{Name: "serve.miss_ms", Unit: "ms", Better: lower},
		{Name: "serve.hit_p50_us", Unit: "us", Better: lower},
		{Name: "serve.hit_p99_us", Unit: "us", Better: lower},
		{Name: "serve.warm_rps", Unit: "1/s", Better: higher},
		{Name: "serve.key_ns", Unit: "ns", Better: lower},
		{Name: "serve.cache_hits", Unit: "count", Better: higher, Exact: true},
		{Name: "serve.cache_misses", Unit: "count", Better: lower, Exact: true},
		{Name: "serve.sweeps", Unit: "count", Better: lower, Exact: true},
		{Name: "serve.hit_ratio", Unit: "frac", Better: higher, Exact: true},

		// internal/metrics and internal/obs.
		{Name: "metrics.sample_percentile_ns", Unit: "ns", Better: lower},
		{Name: "obs.hist_observe_ns", Unit: "ns", Better: lower},
		{Name: "obs.trace_overhead_frac", Unit: "frac", Better: lower},

		// The Go runtime under the untraced pass, and the process's
		// high-water resident set once that pass is done. peak_rss_mb was
		// meant to be an end-to-end metric; over ten runs it spreads by up
		// to 20% on the two service workloads (whether two workers' garbage
		// peaks coincide is luck), which no bound the contract allows can
		// carry.
		{Name: "host.peak_rss_mb", Unit: "MB", Better: lower},
		{Name: "host.allocs", Unit: "count", Better: lower},
		{Name: "host.alloc_mb", Unit: "MB", Better: lower},
		{Name: "host.gc_cycles", Unit: "count", Better: lower},
		{Name: "host.gc_pause_ms", Unit: "ms", Better: lower},

		// Share of the traced pass covered by named child spans.
		{Name: "bench.span_coverage_frac", Unit: "frac", Better: higher},
	}...)
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlChurn  = "dht-churn"
	wlStatic = "dht-static"
	wlNonDHT = "suite-nondht"
	wlReport = "report-cold"
	wlServe  = "serve-warm"
)

var workloads = []workloadDef{
	{wlChurn, "E15, 3 seeds: Kademlia under churn rewrites routing tables between lookups (write-beside-read); internal/overlay does ~90% of the work, kernel and transport almost none"},
	{wlStatic, "E03 (1500 lookups) + E04 (300), 3 seeds: tables bootstrapped once then only read; the one customer of ShardedSim, so a kernel unification must hold it flat"},
	{wlNonDHT, "the other 16 experiments, 3 seeds: PBFT/Raft/PoW/gossip, the kernel heap and netmodel.Send do the work; predicted no change for any Kademlia fix"},
	{wlReport, "one cold GET /report of all 19 experiments x 3 seeds through the service on 2 harness workers: what a user waits for; E15's three jobs are the tail"},
	{wlServe, "closed loop, 2 keep-alive loopback clients, 20000 warm GETs per pass over every artifact of a cached tree: the cache-hit path, where simulations cost nothing"},
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	out, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"go", "run", "./bench"}, []string{"bench"}, runSeconds, workloads, endToEnd, perLayer}, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: encode manifest: %v", err)) // strings and numbers only: cannot fail
	}
	return append(out, '\n')
}
