// Package serve is the living-report service: an HTTP API that executes
// report scenarios on demand through the harness worker pool and serves
// the resulting artifact trees from an in-memory, scenario-hash-keyed
// cache. Identical scenarios collapse onto one generation (singleflight)
// and later requests stream the cached bytes, so the served artifacts
// are byte-identical to the offline `decentsim report` tree for the same
// scenario — the determinism contract makes the cache sound. The service
// reports its own behaviour through the same obs telemetry layer as the
// simulations: cache hit / miss / inflight-wait counters plus a sweep
// counter, readable via Server.Stats.
//
// This package deliberately sits outside the decentlint nondeterm scope:
// it owns wall-clock concerns (HTTP, request contexts, cancellation)
// while everything it serves stays deterministic.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
)

// DefaultMaxCached bounds how many completed scenario trees the cache
// retains before least-recently-used eviction. In-flight generations are
// never evicted.
const DefaultMaxCached = 16

// Server executes report scenarios on demand and caches their trees by
// scenario hash. The zero value is not usable; construct with New.
type Server struct {
	reg *core.Registry
	// base is the default scenario served by /report and /experiments.
	base report.Options
	// maxCached bounds retained completed trees (LRU beyond it).
	maxCached int
	// col receives the service's cache lanes. The obs collector is
	// single-owner by contract, so every touch happens under mu with the
	// server as the owner.
	col *obs.Collector

	mu    sync.Mutex
	cache map[string]*entry
	seq   int64
}

// entry is one cached (or in-flight) scenario generation.
type entry struct {
	ready   chan struct{} // closed when tree/err are set
	tree    *report.Tree
	err     error
	waiters int                // requests currently waiting on ready
	cancel  context.CancelFunc // stops generation when all waiters leave
	lastUse int64              // server sequence number for LRU eviction
}

// New builds a Server over the registry. base is the default scenario
// for /report and /experiments/{id}; its HTML rendering is forced on (the
// service's reason to exist). Every request resolves its scenario through
// report.Canonical, so the default scenario hashes identically to an
// explicit /run request naming the same values. col may be nil (no
// telemetry).
func New(reg *core.Registry, base report.Options, col *obs.Collector) *Server {
	base.HTML = true
	return &Server{
		reg:       reg,
		base:      base,
		maxCached: DefaultMaxCached,
		col:       col,
		cache:     make(map[string]*entry),
	}
}

// maxRequestSeeds caps how many seeds one /run request may replicate
// over: requests come from outside the process, and the harness's own
// MaxSeeds bound (a typo guard) is far above what a request should cost.
const maxRequestSeeds = 10000

// Key returns the cache key of a canonical (report.Canonical) scenario:
// the SHA-256 of its descriptor (ordered experiment scenario keys — the
// same identities the manifest's claims carry — plus seeds and layer
// toggles).
func Key(opts report.Options) string {
	var b strings.Builder
	for i, id := range opts.IDs {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(harness.ScenarioKey(id, opts.Scale, opts.Params))
	}
	b.WriteString("|seeds=")
	for i, s := range opts.Seeds {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(strconv.FormatInt(s, 10))
	}
	fmt.Fprintf(&b, "|sens=%t|grid=%d|res=%t|html=%t",
		opts.Sensitivity, opts.GridPoints, opts.Resources, opts.HTML)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Stats is a point-in-time read of the service's cache lanes.
type Stats struct {
	Hits          uint64 `json:"cache_hits"`
	Misses        uint64 `json:"cache_misses"`
	InflightWaits uint64 `json:"cache_inflight_waits"`
	Sweeps        uint64 `json:"sweeps"`
}

// Stats reads the obs cache lanes. Zero when the server has no collector.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.col.Counter("serve.cache_hit").Total(),
		Misses:        s.col.Counter("serve.cache_miss").Total(),
		InflightWaits: s.col.Counter("serve.cache_inflight_wait").Total(),
		Sweeps:        s.col.Counter("serve.sweeps").Total(),
	}
}

// count bumps a service lane. Callers must hold s.mu: obs collectors are
// single-owner and the mutex is what makes the server that owner.
func (s *Server) count(name string) {
	s.col.Counter(name).Add(0, -1, 1)
}

// Tree returns the generated tree for the scenario, its cache key, and
// the cache lane the request took: "hit" (already generated), "miss"
// (this request triggered generation), or "wait" (joined a generation
// already in flight). Errors are never cached; a failed generation's
// waiters all receive the error and the next request retries. When ctx
// ends and a generation has no remaining waiters it is cancelled. A
// scenario report.Canonical refuses (unknown or repeated id) is an error
// before any lane is taken.
func (s *Server) Tree(ctx context.Context, opts report.Options) (*report.Tree, string, string, error) {
	opts, err := report.Canonical(s.reg, opts)
	if err != nil {
		return nil, "", "", err
	}
	key := Key(opts)

	s.mu.Lock()
	s.seq++
	if e, ok := s.cache[key]; ok {
		e.lastUse = s.seq
		select {
		case <-e.ready:
			// Completed entries always hold a tree: errors are deleted
			// from the cache before ready is observed here.
			s.count("serve.cache_hit")
			s.mu.Unlock()
			return e.tree, key, "hit", nil
		default:
			e.waiters++
			s.count("serve.cache_inflight_wait")
			s.mu.Unlock()
			return s.wait(ctx, e, key, "wait")
		}
	}
	genCtx, cancel := context.WithCancel(context.Background())
	e := &entry{ready: make(chan struct{}), cancel: cancel, waiters: 1, lastUse: s.seq}
	s.cache[key] = e
	s.count("serve.cache_miss")
	s.count("serve.sweeps")
	s.mu.Unlock()

	go func() {
		tree, err := report.GenerateContext(genCtx, s.reg, opts)
		s.mu.Lock()
		e.tree, e.err = tree, err
		if err != nil && s.cache[key] == e {
			delete(s.cache, key)
		}
		close(e.ready)
		if err == nil {
			s.evictLocked()
		}
		s.mu.Unlock()
	}()
	return s.wait(ctx, e, key, "miss")
}

// wait blocks until the entry completes or ctx ends. The caller must
// already be counted in e.waiters. The last waiter to abandon an
// unfinished generation cancels it and removes the entry.
func (s *Server) wait(ctx context.Context, e *entry, key, lane string) (*report.Tree, string, string, error) {
	select {
	case <-e.ready:
	case <-ctx.Done():
		s.mu.Lock()
		e.waiters--
		abandoned := false
		select {
		case <-e.ready:
		default:
			if e.waiters == 0 {
				abandoned = true
				if s.cache[key] == e {
					delete(s.cache, key)
				}
			}
		}
		s.mu.Unlock()
		if abandoned {
			e.cancel()
		}
		return nil, key, lane, fmt.Errorf("serve: request abandoned: %w", ctx.Err())
	}
	s.mu.Lock()
	e.waiters--
	s.mu.Unlock()
	if e.err != nil {
		return nil, key, lane, e.err
	}
	return e.tree, key, lane, nil
}

// evictLocked drops least-recently-used completed idle entries beyond
// maxCached. Caller holds s.mu.
func (s *Server) evictLocked() {
	for {
		done := 0
		victim := ""
		var victimUse int64
		for k, e := range s.cache {
			select {
			case <-e.ready:
			default:
				continue
			}
			done++
			if e.waiters == 0 && (victim == "" || e.lastUse < victimUse) {
				victim, victimUse = k, e.lastUse
			}
		}
		if done <= s.maxCached || victim == "" {
			return
		}
		delete(s.cache, victim)
	}
}

// Handler returns the service's HTTP API:
//
//	GET /healthz             liveness probe
//	GET /report              the default scenario's index.html
//	GET /report/{path...}    any artifact of the default scenario's tree
//	GET /experiments/{id}    the default scenario's per-experiment page
//	GET /run?scenario=...    execute (or hit the cache for) a scenario
//	GET /statz               the cache lanes as JSON
//
// /run takes scenario=E01,E11 (experiment ids; empty means the full
// registry), seeds=1..5 or seeds=1,2,9, scale=0.25, knob.<name>=<value>
// pins, sensitivity=true, resources=true, and artifact=<path> selecting
// which artifact of the tree to return (default manifest.json). Unknown
// query keys, malformed values, and unknown experiment ids are a 400.
// Every scenario response carries X-Decentsim-Cache: hit|miss|wait and
// X-Decentsim-Key: <scenario sha256>.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"cache_hits\":%d,\"cache_misses\":%d,\"cache_inflight_waits\":%d,\"sweeps\":%d}\n",
			st.Hits, st.Misses, st.InflightWaits, st.Sweeps)
	})
	mux.HandleFunc("GET /report", func(w http.ResponseWriter, r *http.Request) {
		s.serveScenario(w, r, s.base, "index.html")
	})
	mux.HandleFunc("GET /report/{path...}", func(w http.ResponseWriter, r *http.Request) {
		path := r.PathValue("path")
		if path == "" {
			path = "index.html"
		}
		s.serveScenario(w, r, s.base, path)
	})
	mux.HandleFunc("GET /experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := strings.ToUpper(r.PathValue("id"))
		s.serveScenario(w, r, s.base, "experiments/"+id+".html")
	})
	mux.HandleFunc("GET /run", func(w http.ResponseWriter, r *http.Request) {
		opts, artifact, err := s.parseScenario(r.URL.Query())
		if err != nil {
			http.Error(w, fmt.Sprintf("bad scenario: %v", err), http.StatusBadRequest)
			return
		}
		s.serveScenario(w, r, opts, artifact)
	})
	return mux
}

// serveScenario resolves the scenario through the cache and streams one
// artifact of its tree.
func (s *Server) serveScenario(w http.ResponseWriter, r *http.Request, opts report.Options, artifact string) {
	tree, key, lane, err := s.Tree(r.Context(), opts)
	w.Header().Set("X-Decentsim-Cache", lane)
	w.Header().Set("X-Decentsim-Key", key)
	if err != nil {
		http.Error(w, fmt.Sprintf("scenario generation failed: %v", err), http.StatusInternalServerError)
		return
	}
	if tree.RunErrors > 0 {
		// A page rendered around a run that errored (or panicked) is not
		// the requested artifact; fail the request like `decentsim report`
		// fails its exit status.
		http.Error(w, fmt.Sprintf("scenario generation failed: %d run(s) errored, first: %s",
			tree.RunErrors, tree.FirstRunError), http.StatusInternalServerError)
		return
	}
	rd, ok := tree.Open(artifact)
	if !ok {
		http.Error(w, fmt.Sprintf("no artifact %q in scenario tree", artifact), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", contentType(artifact))
	io.Copy(w, rd)
}

// contentType maps artifact extensions to media types; report trees hold
// a small closed set.
func contentType(path string) string {
	switch {
	case strings.HasSuffix(path, ".html"):
		return "text/html; charset=utf-8"
	case strings.HasSuffix(path, ".json"):
		return "application/json"
	case strings.HasSuffix(path, ".svg"):
		return "image/svg+xml"
	case strings.HasSuffix(path, ".md"):
		return "text/markdown; charset=utf-8"
	case strings.HasSuffix(path, ".csv"):
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// parseScenario builds report options from /run query parameters,
// rejecting unknown keys and malformed or unknown values so typos fail
// loudly (400) instead of silently running the default scenario.
func (s *Server) parseScenario(q map[string][]string) (report.Options, string, error) {
	opts := report.Options{
		HTML:    true,
		Workers: s.base.Workers,
		Shards:  s.base.Shards,
	}
	artifact := "manifest.json"
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := q[k][len(q[k])-1]
		switch {
		case k == "scenario":
			if v != "" {
				opts.IDs = strings.Split(v, ",")
			}
		case k == "seeds":
			seeds, err := harness.ParseSeeds(v)
			if err != nil {
				return opts, "", err
			}
			if len(seeds) > maxRequestSeeds {
				return opts, "", fmt.Errorf("seeds %q expand to %d seeds (max %d per request)", v, len(seeds), maxRequestSeeds)
			}
			opts.Seeds = seeds
		case k == "scale":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return opts, "", fmt.Errorf("scale %q must be a finite positive number", v)
			}
			opts.Scale = f
		case k == "sensitivity", k == "resources":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return opts, "", fmt.Errorf("%s %q must be a boolean", k, v)
			}
			if k == "sensitivity" {
				opts.Sensitivity = b
			} else {
				opts.Resources = b
			}
		case k == "artifact":
			artifact = v
		case strings.HasPrefix(k, "knob."):
			name := k[len("knob."):]
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return opts, "", fmt.Errorf("knob %s value %q must be a finite number", name, v)
			}
			if opts.Params == nil {
				opts.Params = map[string]float64{}
			}
			opts.Params[name] = f
		default:
			return opts, "", fmt.Errorf("unknown query key %q", k)
		}
	}
	opts, err := report.Canonical(s.reg, opts)
	if err != nil {
		return opts, "", err
	}
	return opts, artifact, checkKnobs(opts)
}

// checkKnobs refuses a canonical scenario's knobs by the rules its jobs
// would be refused by — ownership for the sweep (harness.Sweep.Validate),
// then each experiment's own rule on the config its jobs would carry —
// before a sweep is counted or one job per seed scheduled and failed.
func checkKnobs(opts report.Options) error {
	probe := harness.Sweep{
		Experiments: opts.IDs,
		Seeds:       opts.Seeds[:1],
		Scales:      []float64{opts.Scale},
		Params:      make(map[string][]float64, len(opts.Params)),
	}
	for name, v := range opts.Params {
		probe.Params[name] = []float64{v}
	}
	if err := probe.Validate(); err != nil {
		return err
	}
	for _, job := range probe.Jobs() {
		if err := experiments.ValidateKnobs(job.ExperimentID, job.Config); err != nil {
			return err
		}
	}
	return nil
}
