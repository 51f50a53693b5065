package harness

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Sweep describes a grid of experiment runs: the cartesian product of
// experiment ids × scales × knob combinations × seeds. Zero-value fields
// take the single-run defaults (seeds {1}, scales {1}, no knobs), so a
// Sweep with only Experiments set reproduces today's `run` behavior.
type Sweep struct {
	// Experiments are the ids to run (e.g. "E03", "E06").
	Experiments []string
	// Seeds are the replication seeds per scenario.
	Seeds []int64
	// Scales are the workload scale factors to cross in.
	Scales []float64
	// Params maps knob names to the values to cross in (e.g.
	// "e03.lookups" -> {100, 200}). Experiments read knobs via
	// core.Config.Param; unset knobs keep their documented defaults.
	Params map[string][]float64
	// Shards is read by nothing; bench/ writes it, and ROADMAP items 1 and 2 delete it.
	Shards int
}

// Jobs expands the grid into a deterministic job list: experiments
// outermost, then scales, then knob combinations (names sorted), then
// seeds innermost — so consecutive jobs replicate one scenario across
// seeds and aggregate groups come out in grid order.
//
// A knob whose prefix (the part before the first ".") names one of the
// sweep's experiments applies only to that experiment: crossing
// "e03.lookups" into E06's grid would just duplicate E06's scenario into
// identical groups. Knobs whose prefix matches no swept experiment are
// treated as global and crossed into every experiment's grid.
func (s Sweep) Jobs() []Job {
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	scales := s.Scales
	if len(scales) == 0 {
		scales = []float64{1}
	}
	var jobs []Job
	for _, id := range s.Experiments {
		combos := paramCombos(s.paramsFor(id))
		for _, scale := range scales {
			for _, params := range combos {
				for _, seed := range seeds {
					jobs = append(jobs, Job{
						ExperimentID: id,
						Config: core.Config{
							Seed:   seed,
							Scale:  scale,
							Params: params,
						},
					})
				}
			}
		}
	}
	return jobs
}

// KnobAppliesTo reports whether a knob name is owned by the given
// experiment id ("e03.lookups" applies to "E03"). Ownership is intrinsic
// to the name (core.KnobOwner), not to which experiments a sweep happens
// to include.
func KnobAppliesTo(name, id string) bool {
	return strings.EqualFold(core.KnobOwner(name), id)
}

// paramsFor filters the sweep's knobs down to those applicable to one
// experiment: its own knobs plus global (unowned) knobs. Knobs owned by
// other experiments are excluded; Validate rejects sweeps whose knobs'
// owners are not swept at all.
func (s Sweep) paramsFor(id string) map[string][]float64 {
	if len(s.Params) == 0 {
		return nil
	}
	out := make(map[string][]float64, len(s.Params))
	for name, vals := range s.Params {
		if core.KnobOwner(name) == "" || KnobAppliesTo(name, id) {
			out[name] = vals
		}
	}
	return out
}

// Validate rejects sweeps whose knobs are owned by an experiment the
// sweep does not include: such a knob would either silently vanish from
// the grid or silently duplicate scenarios, depending on expansion rules.
func (s Sweep) Validate() error {
	names := make([]string, 0, len(s.Params))
	for name := range s.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		owner := core.KnobOwner(name)
		if owner == "" {
			continue
		}
		swept := false
		for _, id := range s.Experiments {
			if strings.EqualFold(owner, id) {
				swept = true
				break
			}
		}
		if !swept {
			return fmt.Errorf("harness: knob %s applies to experiment %s, which is not among the selected experiments", name, owner)
		}
	}
	return nil
}

// paramCombos crosses the knob value lists into concrete assignments, in
// deterministic order (knob names sorted, values in declaration order). An
// empty map yields the single nil assignment.
func paramCombos(params map[string][]float64) []map[string]float64 {
	names := make([]string, 0, len(params))
	for name, vals := range params {
		if len(vals) > 0 {
			names = append(names, name) //decentlint:allow nondeterm names are sorted below before any order-sensitive use
		}
	}
	if len(names) == 0 {
		return []map[string]float64{nil}
	}
	sort.Strings(names)
	combos := []map[string]float64{{}}
	for _, name := range names {
		next := make([]map[string]float64, 0, len(combos)*len(params[name]))
		for _, base := range combos {
			for _, v := range params[name] {
				m := make(map[string]float64, len(base)+1)
				for k, bv := range base {
					m[k] = bv
				}
				m[name] = v
				next = append(next, m)
			}
		}
		combos = next
	}
	return combos
}

// ParamLabel renders a knob assignment canonically: names sorted, values
// in minimal notation, pairs joined by ",". Empty assignments render "".
func ParamLabel(params map[string]float64) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, name+"="+strconv.FormatFloat(params[name], 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// MaxSeeds bounds how many seeds one specification may expand to; a
// larger request is almost certainly a typo (e.g. "1..1000000000") and
// would allocate gigabytes before the first job ran.
const MaxSeeds = 1 << 20

// ParseSeeds parses a seed specification: comma-separated entries, each a
// single integer or an inclusive ascending range "lo..hi". Examples:
// "1..10", "3", "1,2,5..7". Seeds below 1 are rejected: core.Config maps
// seed 0 to 1, which would silently duplicate a replication. The expanded
// list is capped at MaxSeeds.
func ParseSeeds(spec string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("harness: empty seed entry in %q", spec)
		}
		lo, hi, isRange, err := parseRange(part)
		if err != nil {
			return nil, err
		}
		if lo < 1 {
			return nil, fmt.Errorf("harness: seed %d in %q must be >= 1", lo, part)
		}
		if !isRange {
			if len(out) >= MaxSeeds {
				return nil, fmt.Errorf("harness: seed spec expands past the %d-seed cap", MaxSeeds)
			}
			out = append(out, lo)
			continue
		}
		if hi < lo {
			return nil, fmt.Errorf("harness: descending seed range %q", part)
		}
		// lo >= 1 is already enforced, so hi-lo cannot overflow; this
		// also prevents the s++ wraparound a range ending at MaxInt64
		// would hit.
		if hi-lo >= MaxSeeds-int64(len(out)) {
			return nil, fmt.Errorf("harness: seed spec %q expands past the %d-seed cap", spec, MaxSeeds)
		}
		for s := lo; s <= hi; s++ {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: no seeds in %q", spec)
	}
	// Duplicate seeds would be aggregated as independent replications,
	// biasing stddev/CI toward 0 — reject rather than silently dedup.
	seen := make(map[int64]bool, len(out))
	for _, s := range out {
		if seen[s] {
			return nil, fmt.Errorf("harness: duplicate seed %d in %q", s, spec)
		}
		seen[s] = true
	}
	return out, nil
}

func parseRange(part string) (lo, hi int64, isRange bool, err error) {
	if i := strings.Index(part, ".."); i >= 0 {
		lo, err = strconv.ParseInt(part[:i], 10, 64)
		if err != nil {
			return 0, 0, false, fmt.Errorf("harness: bad seed range %q", part)
		}
		hi, err = strconv.ParseInt(part[i+2:], 10, 64)
		if err != nil {
			return 0, 0, false, fmt.Errorf("harness: bad seed range %q", part)
		}
		return lo, hi, true, nil
	}
	lo, err = strconv.ParseInt(part, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("harness: bad seed %q", part)
	}
	return lo, 0, false, nil
}

// ParseScales parses a comma-separated list of positive scale factors,
// e.g. "0.25,0.5,1". Duplicates are rejected: repeated grid points merge
// into one aggregate group and double-count every seed.
func ParseScales(spec string) ([]float64, error) {
	var out []float64
	seen := make(map[float64]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("harness: bad scale %q", part)
		}
		if seen[v] {
			return nil, fmt.Errorf("harness: duplicate scale %q", part)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

// ParseParam parses one knob specification "name=v1,v2,...", as accepted
// by decentsim's repeatable -set flag.
func ParseParam(spec string) (string, []float64, error) {
	name, vals, ok := strings.Cut(spec, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return "", nil, fmt.Errorf("harness: bad knob %q (want name=v1,v2)", spec)
	}
	var out []float64
	seen := make(map[float64]bool)
	for _, part := range strings.Split(vals, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		// NaN would also defeat the map-based duplicate check below
		// (NaN map keys never compare equal).
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", nil, fmt.Errorf("harness: bad knob value %q in %q", part, spec)
		}
		if seen[v] {
			return "", nil, fmt.Errorf("harness: duplicate knob value %q in %q", part, spec)
		}
		seen[v] = true
		out = append(out, v)
	}
	return name, out, nil
}
