package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Options configures report generation.
type Options struct {
	// IDs are the experiment ids to include, in the order their pages
	// and matrix rows appear. Empty means every experiment in the
	// registry, in registry (paper) order.
	IDs []string
	// Seeds are the replication seeds each experiment is run with.
	// Empty means seeds 1..3.
	Seeds []int64
	// Scale is the workload scale factor for every run (0 means 1).
	Scale float64
	// Params pins named knobs for every run, grid points included (one
	// value each, the single-scenario analogue of a sweep's grid). Knob
	// ownership follows the sweep rule: a knob prefixed for one selected
	// experiment attaches only to that experiment, and a knob owned by an
	// unselected experiment, like a value its spec refuses, is a
	// generation error (Check). The assignment is part of each
	// scenario's identity (it appears in the manifest's claim keys).
	Params map[string]float64
	// HTML also renders every markdown page as a self-contained HTML
	// sibling (inline CSS, no JS): REPORT.md gains index.html and each
	// experiments/<ID>.md an experiments/<ID>.html, all indexed by the
	// manifest with content hashes and byte-deterministic like the
	// markdown they mirror.
	HTML bool
	// Workers is an upper bound on the harness jobs in flight (<= 0: none);
	// jobs and their parts share GOMAXPROCS cores. It has no effect on the
	// generated bytes.
	Workers int
	// Shards is read by nothing; bench/ writes it, and ROADMAP item 1(A) deletes it.
	Shards int
	// Sensitivity enables the per-knob sensitivity layer: every selected
	// experiment's registered knobs are swept over a grid, each page
	// gains metric-vs-knob figures (mean ± 95% CI bands) and a
	// verdict-stability table, and the traceability matrix gains a
	// stable/fragile column per claim.
	Sensitivity bool
	// GridPoints bounds the swept values per knob (<= 0 means
	// experiments.DefaultGridPoints); every registered KnobSpec is swept
	// over its floor → default → stretch grid at the report's scale
	// (experiments.SensitivityGrids).
	GridPoints int
	// Resources enables the run-telemetry layer: every baseline run gets
	// its own obs collector, each experiment page gains a Resources
	// appendix (kernel statistics, transport counters, latency-histogram
	// quantiles and CDF figures from the representative seed), and the
	// tree gains resources/host.json — per-run wall-time and heap
	// samples, indexed by the manifest as volatile and excluded from its
	// content hashes. The appendix itself stays byte-deterministic at any
	// worker count.
	Resources bool
	// ProfileDir, when non-empty, writes per-run CPU and heap pprof
	// profiles (named as harness.Runner.ProfileDir documents) into the
	// directory, which must exist. Profiles serialize runs (CPU
	// profiling is process-global) and are host-side artifacts written
	// outside the tree; they never affect the generated bytes.
	ProfileDir string
}

// File is one generated artifact: a path relative to the report root
// (always forward-slash separated) and its content.
type File struct {
	Path string
	Data []byte
}

// Tree is the generated document tree, sorted by path. It always contains
// REPORT.md, one page per experiment under experiments/, any figures
// under figures/, and manifest.json indexing everything else by content
// hash. The summary counters let callers report the outcome without
// re-parsing the manifest.
type Tree struct {
	Files []File
	// Groups is the number of aggregated scenarios in the report.
	Groups int
	// Reproduced counts groups whose every shape check won its majority
	// vote.
	Reproduced int
	// RunErrors counts individual replication runs that errored.
	RunErrors int
	// FirstRunError is the first errored run's scenario key and message
	// (baseline scenarios before sensitivity ones), for callers that
	// report the failure without rendering a page; "" when RunErrors is 0.
	FirstRunError string
}

// noteRunErrors adds one scenario's errored runs to the tree's summary.
func (t *Tree) noteRunErrors(v harness.GroupView) {
	if t.RunErrors == 0 && len(v.Errors) > 0 {
		t.FirstRunError = v.Key() + " " + v.Errors[0]
	}
	t.RunErrors += len(v.Errors)
}

// Lookup returns the file at path, or nil when absent.
func (t *Tree) Lookup(path string) []byte {
	for _, f := range t.Files {
		if f.Path == path {
			return f.Data
		}
	}
	return nil
}

// Open returns a reader over the named artifact, or ok=false when the
// tree has no file at path. The reader seeks, so it satisfies HTTP
// range-request plumbing directly.
func (t *Tree) Open(path string) (r *bytes.Reader, ok bool) {
	data := t.Lookup(path)
	if data == nil {
		return nil, false
	}
	return bytes.NewReader(data), true
}

// WriteDir materializes the tree under dir, creating directories as
// needed. Existing files are overwritten; stale files from earlier
// generations are not removed, so determinism comparisons should target
// fresh directories.
func (t *Tree) WriteDir(dir string) error {
	for _, f := range t.Files {
		path := filepath.Join(dir, filepath.FromSlash(f.Path))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, f.Data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Manifest is the machine-readable index of a generated tree: the run
// configuration, one claim row per aggregated scenario (the verdict
// record), and every artifact by content hash. It is exported so
// consumers can decode manifest.json back without re-deriving the schema.
type Manifest struct {
	Title       string               `json:"title"`
	Experiments []string             `json:"experiments"`
	Seeds       []int64              `json:"seeds"`
	Scale       float64              `json:"scale"`
	Params      string               `json:"params,omitempty"`
	Groups      int                  `json:"groups"`
	Reproduced  int                  `json:"reproduced"`
	Resources   bool                 `json:"resources,omitempty"`
	Sensitivity *ManifestSensitivity `json:"sensitivity,omitempty"`
	Claims      []ManifestClaim      `json:"claims"`
	Files       []ManifestFile       `json:"files"`
}

// ManifestSensitivity summarizes the knob-sweep layer when the report
// was generated with Options.Sensitivity.
type ManifestSensitivity struct {
	GridPoints int      `json:"grid_points"`
	Knobs      []string `json:"knobs"`
	Scenarios  int      `json:"scenarios"`
}

// ManifestClaim is one scenario's verdict record. Scenario is the
// canonical harness key (experiment id + scale + knob assignment), the
// same Group.Key that `decentsim diff` matches sweep reports on.
type ManifestClaim struct {
	Experiment string `json:"experiment"`
	Scenario   string `json:"scenario"`
	Section    string `json:"section,omitempty"`
	Title      string `json:"title"`
	// Verdict is the three-way matrix outcome: REPRODUCED,
	// NOT REPRODUCED, or ERROR (no completed runs).
	Verdict string `json:"verdict"`
	// ChecksPassed / Checks are the majority-vote tallies behind Verdict.
	ChecksPassed int `json:"checks_passed"`
	Checks       int `json:"checks"`
	// Metric is the headline metric (empty when the scenario has none);
	// Mean and CI95 carry its cross-seed statistics at full precision.
	Metric string  `json:"metric,omitempty"`
	Mean   float64 `json:"mean,omitempty"`
	CI95   float64 `json:"ci95,omitempty"`
}

// ManifestFile indexes one artifact of the tree.
type ManifestFile struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	// Volatile marks files whose bytes are machine-dependent (host-side
	// measurements); they carry no hash and are excluded from
	// determinism comparisons.
	Volatile bool `json:"volatile,omitempty"`
}

// Canonical resolves a scenario's defaults against the registry, so every
// consumer (generation, the report service's cache key, the CLI) agrees on
// what an Options value means: empty IDs become every registered
// experiment in paper order, ids are upper-cased into a fresh slice (the
// caller's is never written), empty Seeds become 1..3, a zero Scale 1,
// and GridPoints the count the sensitivity layer sweeps: < 1 becomes
// experiments.DefaultGridPoints with Sensitivity on, and any count 0 with
// it off — one tree, one cache key. Unknown and duplicate ids are errors
// — a repeated id would aggregate as extra replications of the same
// scenario. Canonical options resolve to
// themselves.
func Canonical(reg *core.Registry, opts Options) (Options, error) {
	given := opts.IDs
	opts.IDs = make([]string, 0, len(given))
	if len(given) == 0 {
		for _, e := range reg.All() {
			opts.IDs = append(opts.IDs, e.ID())
		}
	}
	for _, id := range given {
		e, err := reg.Get(id)
		if err != nil {
			return opts, err
		}
		if slices.Contains(opts.IDs, e.ID()) {
			return opts, fmt.Errorf("duplicate experiment id %s", e.ID())
		}
		opts.IDs = append(opts.IDs, e.ID())
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = []int64{1, 2, 3}
	}
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	switch {
	case !opts.Sensitivity:
		opts.GridPoints = 0
	case opts.GridPoints < 1:
		opts.GridPoints = experiments.DefaultGridPoints
	}
	return opts, nil
}

// sweep is the one conversion of canonical options into a harness.Sweep:
// every selected experiment at the scenario's seeds and scale, each pin a
// one-value grid. Check, the baseline jobs and every sensitivity grid
// point expand from it.
func (o Options) sweep() harness.Sweep {
	sw := harness.Sweep{
		Experiments: o.IDs,
		Seeds:       o.Seeds,
		Scales:      []float64{o.Scale},
		Params:      make(map[string][]float64, len(o.Params)),
	}
	for name, v := range o.Params {
		sw.Params[name] = []float64{v}
	}
	return sw
}

// Check is the one scenario check: it resolves opts with Canonical, then
// refuses the scenario by the rules its jobs would be refused by — knob
// ownership (harness.Sweep.Validate), then each selected experiment's
// knob rule (experiments.ValidateKnobs) at the scenario's scale. Canonical
// alone does not check: serve.New resolves its base scenario with it, and
// a base that fails the knob rule fails at generation.
func Check(reg *core.Registry, opts Options) (Options, error) {
	opts, err := Canonical(reg, opts)
	if err != nil {
		return opts, err
	}
	sw := opts.sweep()
	if err := sw.Validate(); err != nil {
		return opts, err
	}
	sw.Seeds = sw.Seeds[:1] // the knob rule does not read the seed
	for _, job := range sw.Jobs() {
		if err := experiments.ValidateKnobs(job.ExperimentID, job.Config); err != nil {
			return opts, err
		}
	}
	return opts, nil
}

// Generate runs the selected experiments across the seed set on the
// harness worker pool and renders the reproduction report as an in-memory
// document tree. Equal registries and options produce byte-identical
// trees at any worker count: rendering consumes only the deterministic
// aggregation view, never wall-clock times or map order.
func Generate(reg *core.Registry, opts Options) (*Tree, error) {
	return GenerateContext(context.Background(), reg, opts)
}

// GenerateContext is Generate with cancellation: once ctx is done,
// replications that have not started yet are skipped and generation
// returns ctx's error instead of a partial tree. The report service uses
// this to abandon sweeps whose requesters have gone away.
//
// Generation builds the whole report model before rendering any of it:
// the baseline jobs expand experiments outermost, each at one scale and
// one knob assignment, so views[i] is exps[i]'s only scenario; the
// sensitivity layer then binds its grid points to their views and
// computes every verdict's stability; only then do pages render.
func GenerateContext(ctx context.Context, reg *core.Registry, opts Options) (*Tree, error) {
	opts, err := Check(reg, opts)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	exps := make([]core.Experiment, len(opts.IDs))
	for i, id := range opts.IDs {
		exps[i], _ = reg.Get(id) // Check resolved every id against reg
	}
	runner := harness.Runner{Registry: reg, Workers: opts.Workers, ProfileDir: opts.ProfileDir}
	// Baseline and sensitivity jobs run as one batch so the worker pool
	// stays saturated; the two halves of the results aggregate apart.
	baseJobs := opts.sweep().Jobs()
	var res *resourcesLayer
	if opts.Resources {
		res = &resourcesLayer{collectors: make(map[string]*obs.Collector, len(baseJobs))}
		res.attach(baseJobs)
	}
	jobs := baseJobs
	var sens *sensitivity
	if opts.Sensitivity {
		var sensJobs []harness.Job
		sens, sensJobs = buildSensitivity(exps, opts)
		jobs = append(slices.Clip(jobs), sensJobs...)
	}
	results := runner.Run(ctx, jobs)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("report: generation cancelled: %w", err)
	}
	if res != nil {
		res.record(results[:len(baseJobs)])
	}
	views := harness.AggregateView(results[:len(baseJobs)])
	tree := &Tree{Groups: len(views)}
	for _, v := range views {
		tree.noteRunErrors(v)
	}
	if sens != nil {
		sviews := harness.AggregateView(results[len(baseJobs):])
		for _, v := range sviews {
			tree.noteRunErrors(v)
		}
		sens.bind(exps, views, sviews)
	}

	man := Manifest{
		Title:       "decentsim reproduction report",
		Experiments: opts.IDs,
		Seeds:       opts.Seeds,
		Scale:       opts.Scale,
		Params:      harness.ParamLabel(opts.Params),
		Groups:      len(views),
		Resources:   res != nil,
		Claims:      make([]ManifestClaim, len(exps)),
	}
	if sens != nil {
		man.Sensitivity = &ManifestSensitivity{
			GridPoints: sens.gridPoints,
			Knobs:      sens.knobs,
			Scenarios:  sens.scenarios,
		}
	}
	for i, e := range exps {
		v := views[i]
		if v.Reproduced {
			tree.Reproduced++
		}
		man.Claims[i] = manifestClaim(e, v)
		page, figures := renderExperimentPage(e, v, opts, sens, res)
		tree.Files = append(tree.Files, figures...)
		tree.Files = append(tree.Files, File{Path: "experiments/" + e.ID() + ".md", Data: []byte(page)})
	}
	man.Reproduced = tree.Reproduced
	if res != nil {
		tree.Files = append(tree.Files, File{Path: hostFile, Data: res.hostJSON()})
	}
	tree.Files = append(tree.Files, File{Path: "REPORT.md", Data: []byte(renderIndex(exps, views, tree.Reproduced, opts, sens))})
	if opts.HTML {
		tree.Files = append(tree.Files, htmlFiles(tree.Files)...)
	}
	sort.Slice(tree.Files, func(i, j int) bool { return tree.Files[i].Path < tree.Files[j].Path })
	for _, f := range tree.Files {
		if f.Path == hostFile {
			// Host measurements change on every run; hashing them would
			// poison the manifest's determinism.
			man.Files = append(man.Files, ManifestFile{Path: f.Path, Volatile: true})
			continue
		}
		sum := sha256.Sum256(f.Data)
		man.Files = append(man.Files, ManifestFile{
			Path:   f.Path,
			SHA256: hex.EncodeToString(sum[:]),
			Bytes:  len(f.Data),
		})
	}
	enc, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: encode manifest: %w", err)
	}
	tree.Files = append(tree.Files, File{Path: "manifest.json", Data: append(enc, '\n')})
	sort.Slice(tree.Files, func(i, j int) bool { return tree.Files[i].Path < tree.Files[j].Path })
	return tree, nil
}

// manifestClaim is one experiment's diffable verdict row in the manifest:
// the scenario, verdict and headline metric the traceability matrix
// renders.
func manifestClaim(e core.Experiment, v harness.GroupView) ManifestClaim {
	c := ManifestClaim{
		Experiment:   e.ID(),
		Scenario:     v.Key(),
		Section:      core.SectionOf(e),
		Title:        e.Title(),
		Verdict:      v.Verdict(),
		ChecksPassed: v.Passes(),
		Checks:       len(v.Checks),
	}
	if m, ok := v.Headline(); ok {
		c.Metric, c.Mean, c.CI95 = m.Name, m.Mean, m.CI95
	}
	return c
}

// seedsLabel renders the seed set as the page headers print it.
func (o Options) seedsLabel() string {
	parts := make([]string, len(o.Seeds))
	for i, s := range o.Seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ", ")
}
