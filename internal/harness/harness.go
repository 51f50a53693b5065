package harness

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Job is one experiment execution: an experiment id plus the full run
// configuration (seed, scale, knobs).
type Job struct {
	ExperimentID string      `json:"experiment"`
	Config       core.Config `json:"config"`
}

// JobResult pairs a job with its outcome. Exactly one of Result and Err is
// set. Elapsed is wall-clock time for this run only; it and the Host
// sample are deliberately excluded from marshalled output so aggregates
// stay byte-reproducible — host measurements are machine facts, not run
// facts.
type JobResult struct {
	Job     Job           `json:"job"`
	Result  *core.Result  `json:"result,omitempty"`
	Err     error         `json:"-"`
	Elapsed time.Duration `json:"-"`
	// Host is the run's host-resource sample (live heap, allocation
	// deltas; four runtime/metrics reads, no stop-the-world). With
	// parallel workers the process-wide deltas include neighbouring
	// runs; samples are indicative, never part of deterministic output.
	Host obs.HostSample `json:"-"`
}

// Runner executes experiment jobs on a bounded worker pool.
type Runner struct {
	// Registry resolves experiment ids to implementations.
	Registry *core.Registry
	// Workers bounds the jobs in flight; <=0 means GOMAXPROCS. It does not
	// bound cores or memory: one job may run its independent parts on up
	// to GOMAXPROCS goroutines at once, each part with its own kernel.
	Workers int
	// OnResult, when set, is called once per completed job with its
	// index into the job list. Calls are serialized (never concurrent)
	// but arrive in completion order, not job order — consumers that
	// stream output should buffer until their next index is complete.
	OnResult func(i int, r JobResult)
	// ProfileDir, when non-empty, writes per-job CPU and heap profiles
	// (<experiment>-s<seed>.cpu.pprof / .heap.pprof; profileStems) into the
	// directory, with the heap as it stood before the job in .heap.base.pprof
	// (runProfiled).
	// CPU profiling is process-global, so profiled jobs serialize on an
	// internal lock: use a single worker or expect reduced parallelism
	// when profiling.
	ProfileDir string

	mu sync.Mutex
}

// profileMu serializes pprof capture across all Runners in the process:
// pprof.StartCPUProfile is process-global and fails if a profile is
// already active.
var profileMu sync.Mutex

func (r *Runner) workers(jobs int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes all jobs and returns their results in job order,
// regardless of worker count or completion order. Cancellation is checked
// between jobs: once ctx is done, jobs that have not started yet complete
// immediately with ctx's error as their JobResult.Err, while jobs already
// running finish normally (experiments are deterministic simulations with
// no cancellation points of their own). The returned slice always has one
// entry per job, so aggregation over a cancelled batch stays well formed.
func (r *Runner) Run(ctx context.Context, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	stems := make([]string, len(jobs)) // profile file stems; "" = run unprofiled
	if r.ProfileDir != "" {
		stems = profileStems(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := r.workers(len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					out[i] = JobResult{Job: jobs[i], Err: fmt.Errorf("harness: run cancelled: %w", err)}
				} else {
					out[i] = r.runOne(jobs[i], stems[i])
				}
				if r.OnResult != nil {
					r.mu.Lock()
					r.OnResult(i, out[i])
					r.mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

func (r *Runner) runOne(j Job, profileStem string) JobResult {
	// core.Config.WithDefaults remaps seed 0 to 1 and scale <= 0 to 1;
	// letting either through would silently duplicate a replication or
	// mislabel a group, corrupting aggregate statistics — reject here
	// where every job passes. NaN/Inf scales fail the > 0 / finite test.
	if j.Config.Seed < 1 {
		return JobResult{Job: j, Err: fmt.Errorf(
			"harness: job seed %d must be >= 1 (seed 0 would silently rerun seed 1)", j.Config.Seed)}
	}
	if !(j.Config.Scale > 0) || math.IsInf(j.Config.Scale, 0) {
		return JobResult{Job: j, Err: fmt.Errorf(
			"harness: job scale %g must be a finite positive number", j.Config.Scale)}
	}
	watch := obs.StartHostWatch()
	start := time.Now() //decentlint:allow nondeterm host-side wall timing rides on JobResult.Elapsed, never on deterministic output
	var res *core.Result
	var err error
	if profileStem != "" {
		res, err = r.runProfiled(j, profileStem)
	} else {
		res, err = r.runContained(j)
	}
	return JobResult{Job: j, Result: res, Err: err, Elapsed: time.Since(start), Host: watch.Sample()} //decentlint:allow nondeterm host-side wall timing rides on JobResult.Elapsed, never on deterministic output
}

// runContained is Registry.Run with a panicking experiment turned into the
// job's error, so one bad run costs a sweep (or the serve process) that
// job's slot, not every other job's result. The error names the scenario
// and seed, which is all that is needed to replay the run under a debugger.
func (r *Runner) runContained(j Job) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("harness: %s seed %d panicked: %v",
				ScenarioKey(j.ExperimentID, j.Config.Scale, j.Config.Params), j.Config.Seed, p)
		}
	}()
	return r.Registry.Run(j.ExperimentID, j.Config)
}

// profileStems names each job's profile pair: <ID>-s<seed>, except that an
// experiment the batch runs under several scales or knob assignments gets its
// ScenarioKey for <ID> (E06-0.1-s1, E03-1-e03.lookups=60-s1): no shared files.
func profileStems(jobs []Job) []string {
	keys := make(map[string]string, len(jobs)) // experiment id -> its one scenario key, "" once it has several
	for _, j := range jobs {
		id, key := strings.ToUpper(j.ExperimentID), ScenarioKey(j.ExperimentID, j.Config.Scale, j.Config.Params)
		if k, ok := keys[id]; ok && k != key {
			key = ""
		}
		keys[id] = key
	}
	stems := make([]string, len(jobs))
	for i, j := range jobs {
		name := strings.ToUpper(j.ExperimentID)
		if keys[name] == "" {
			name = strings.ReplaceAll(strings.TrimRight(ScenarioKey(j.ExperimentID, j.Config.Scale, j.Config.Params), "|"), "|", "-")
		}
		stems[i] = fmt.Sprintf("%s-s%d", name, j.Config.Seed)
	}
	return stems
}

// runProfiled wraps one run in CPU and heap profile capture. A heap
// profile's alloc_space and alloc_objects count from the start of the
// process, so the heap is also written just before the run, after the same
// runtime.GC(), as <stem>.heap.base.pprof: `go tool pprof -base
// <stem>.heap.base.pprof <stem>.heap.pprof` shows the run's own allocations.
// Profile failures fail the job: a requested-but-missing profile is worse
// than a loud error.
func (r *Runner) runProfiled(j Job, stem string) (*core.Result, error) {
	profileMu.Lock()
	defer profileMu.Unlock()
	stem = filepath.Join(r.ProfileDir, stem)
	if err := writeHeapProfile(stem + ".heap.base.pprof"); err != nil {
		return nil, err
	}
	cpuF, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, fmt.Errorf("harness: create cpu profile: %w", err)
	}
	defer cpuF.Close()
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		return nil, fmt.Errorf("harness: start cpu profile: %w", err)
	}
	res, runErr := r.runContained(j)
	pprof.StopCPUProfile()
	if err := writeHeapProfile(stem + ".heap.pprof"); err != nil {
		return nil, err
	}
	return res, runErr
}

// writeHeapProfile collects garbage, so the profile's in-use figures hold
// only live objects, and writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: create heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("harness: write heap profile: %w", err)
	}
	return nil
}
