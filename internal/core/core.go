package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Config controls an experiment run.
type Config struct {
	// Seed is the master seed; equal seeds give identical results.
	Seed int64 `json:"seed"`
	// Scale multiplies workload sizes (1 = the documented default;
	// smaller values run faster for smoke tests and benchmarks).
	Scale float64 `json:"scale"`
	// Params carries named per-experiment knobs set by sweep grids
	// (e.g. "e03.lookups"). Experiments read them with Param; unset
	// knobs fall back to the experiment's documented default, so a nil
	// map reproduces the baseline run exactly.
	Params map[string]float64 `json:"params,omitempty"`
	// Obs, when non-nil, is the run's telemetry collector: experiments
	// attach it to the kernels they build, and instrumented subsystems
	// record counters, histograms and (optionally) an event trace into
	// it. Nil means telemetry off — the documented zero-cost default.
	// Collectors are per-run state, never part of the configuration
	// identity, so the field is excluded from marshalled output.
	Obs *obs.Collector `json:"-"`
	// Shards is read by nothing; bench/ writes it, and ROADMAP item 1(A) deletes it.
	Shards int `json:"-"`
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// KnobOwner returns the experiment id a knob name is prefixed with
// ("e03.lookups" -> "E03"), or "" for global knobs whose prefix does not
// name an experiment. It is the single ownership rule shared by sweep
// grid expansion, CLI validation, and per-experiment knob checking.
func KnobOwner(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	if len(prefix) < 2 || (prefix[0] != 'e' && prefix[0] != 'E') {
		return ""
	}
	for i := 1; i < len(prefix); i++ {
		if prefix[i] < '0' || prefix[i] > '9' {
			return ""
		}
	}
	return strings.ToUpper(prefix)
}

// Param returns the named knob, or def when the knob is unset.
func (c Config) Param(name string, def float64) float64 {
	if v, ok := c.Params[name]; ok {
		return v
	}
	return def
}

// ScaleInt scales a workload size, keeping a floor of 1.
func (c Config) ScaleInt(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		return 1
	}
	return v
}

// Check is one verified aspect of a claim's shape.
type Check struct {
	// Name describes what was checked.
	Name string `json:"name"`
	// OK reports whether the shape held.
	OK bool `json:"ok"`
	// Detail carries the measured numbers.
	Detail string `json:"detail"`
}

// Metric is one named scalar an experiment records at full precision for
// cross-seed aggregation (table cells are rendered at %.4g and lose
// precision when re-parsed).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Result is an experiment's output. It marshals to stable JSON (field
// order is fixed by the struct; empty artifact lists are omitted), so
// results double as machine-readable artifacts for the harness exporters.
type Result struct {
	// ID is the experiment identifier (e.g. "E06").
	ID string `json:"id"`
	// Title is a short human name.
	Title string `json:"title"`
	// Claim quotes the paper claim being reproduced.
	Claim string `json:"claim"`
	// Tables and Figures carry the regenerated artifacts.
	Tables  []*metrics.Table  `json:"tables,omitempty"`
	Figures []*metrics.Figure `json:"figures,omitempty"`
	// Metrics are explicit full-precision scalars for aggregation.
	Metrics []Metric `json:"metrics,omitempty"`
	// Checks are the shape verdicts.
	Checks []Check `json:"checks"`
}

// AddMetric records a named scalar at full precision.
func (r *Result) AddMetric(name string, value float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value})
}

// AddCheck appends a shape verdict.
func (r *Result) AddCheck(ok bool, name, format string, args ...any) {
	r.Checks = append(r.Checks, Check{
		Name:   name,
		OK:     ok,
		Detail: fmt.Sprintf(format, args...),
	})
}

// JSON renders the result as indented, deterministic JSON.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Reproduced reports whether every shape check held.
func (r *Result) Reproduced() bool {
	if len(r.Checks) == 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// String renders the full result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "claim: %s\n\n", r.Claim)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, f := range r.Figures {
		b.WriteString(f.Render(60, 12))
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	return b.String()
}

// Experiment reproduces one paper claim.
type Experiment interface {
	// ID returns the experiment identifier ("E01".."E19").
	ID() string
	// Title returns a short name.
	Title() string
	// Claim quotes the claim (with paper section).
	Claim() string
	// Run executes the experiment.
	Run(cfg Config) (*Result, error)
}

// sectionRef is a paper section reference: a roman section, an optional
// lettered subsection and an optional numbered problem ("§III-C P2").
var sectionRef = regexp.MustCompile(`^§[IVX]+(-[A-Z])?( P[0-9]+)?`)

// SectionOf returns the paper section tag naming where in the paper's
// argument an experiment's claim lives: the section reference the claim
// text starts with ("§V" for "§V / Fig.1: ..."), otherwise "". The
// reproduction report groups its claim-traceability matrix by this tag. The
// result is stable metadata — it depends only on the experiment
// definition, never on a run.
func SectionOf(e Experiment) string {
	return sectionRef.FindString(e.Claim())
}

// ErrUnknownExperiment is returned when an id does not resolve.
var ErrUnknownExperiment = errors.New("core: unknown experiment")

// Registry holds a set of experiments in declaration order.
type Registry struct {
	exps []Experiment
	byID map[string]Experiment
}

// NewRegistry builds a registry, rejecting duplicate ids.
func NewRegistry(exps ...Experiment) (*Registry, error) {
	r := &Registry{byID: make(map[string]Experiment, len(exps))}
	for _, e := range exps {
		id := strings.ToUpper(e.ID())
		if _, dup := r.byID[id]; dup {
			return nil, fmt.Errorf("core: duplicate experiment id %q", id)
		}
		r.byID[id] = e
		r.exps = append(r.exps, e)
	}
	return r, nil
}

// All returns the experiments in declaration order.
func (r *Registry) All() []Experiment {
	out := make([]Experiment, len(r.exps))
	copy(out, r.exps)
	return out
}

// Get resolves an experiment by id (case-insensitive).
func (r *Registry) Get(id string) (Experiment, error) {
	e, ok := r.byID[strings.ToUpper(id)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	return e, nil
}

// Run executes one experiment by id.
func (r *Registry) Run(id string, cfg Config) (*Result, error) {
	e, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg.WithDefaults())
}
