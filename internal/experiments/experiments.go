// Package experiments implements one runner per paper claim (E01–E19),
// composing the substrate packages into the tables and figures listed in
// DESIGN.md. Each runner returns a core.Result whose checks encode the
// claim's expected shape.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// newSim builds the run's kernel: seeded from the config and, when the
// config carries a telemetry collector, observed by it — every subsystem
// constructed on the kernel (the netmodel transport in particular) then
// discovers the collector via sim.Observer and registers its instruments.
// Runners must create kernels through this helper (or newSimSeed) so
// telemetry threads through every experiment uniformly.
func newSim(cfg core.Config) *sim.Sim {
	return newSimSeed(cfg, cfg.Seed)
}

// newSimSeed is newSim with an explicit seed, for runners that derive
// secondary kernels (e.g. a control run at seed+1).
func newSimSeed(cfg core.Config, seed int64) *sim.Sim {
	if cfg.Obs == nil {
		return sim.New(sim.WithSeed(seed))
	}
	return sim.New(sim.WithSeed(seed), sim.WithObserver(cfg.Obs))
}

// exp is the shared experiment scaffold. The claim leads with its paper
// section ("§III-C P2: ..."), which core.SectionOf reads and TestSections
// checks.
type exp struct {
	id    string
	title string
	claim string
	run   func(cfg core.Config, r *core.Result) error
}

func (e *exp) ID() string    { return e.id }
func (e *exp) Title() string { return e.title }
func (e *exp) Claim() string { return e.claim }

func (e *exp) Run(cfg core.Config) (*core.Result, error) {
	cfg = cfg.WithDefaults()
	if err := ValidateKnobs(e.id, cfg); err != nil {
		return nil, err
	}
	r := &core.Result{ID: e.id, Title: e.title, Claim: e.claim}
	if err := e.run(cfg, r); err != nil {
		return nil, err
	}
	return r, nil
}

// KnobSpec describes one sweepable per-experiment knob: its default, the
// measurement floor below which an explicit value is a run error, the
// maximum the simulator will accept, whether values must be whole
// numbers, and a human description. Scaled marks knobs the experiment
// multiplies by -scale (resolved through scaledSize), whose explicit
// values must therefore survive the post-scaling floor/max checks.
// Requires carries companion knob assignments merged into every
// sensitivity-grid scenario (e.g. e08.loss needs a WAN relay, so its
// grid sets e08.mix=1). GridValues overrides the computed default grid
// for knobs whose valid values the linear floor→stretch interpolation
// cannot know (e.g. e13.raftnodes must be odd).
type KnobSpec struct {
	Default    float64
	Min        float64
	Max        float64
	Integer    bool
	Scaled     bool
	Requires   map[string]float64
	GridValues []float64
	Desc       string
}

// DefaultGridPoints is the default number of swept values per knob in a
// sensitivity grid.
const DefaultGridPoints = 5

// Grid returns the knob's default sensitivity grid: up to points values
// spanning the floor → default → stretch range (stretch is twice the
// default, capped at Max; when the default sits at the floor the whole
// range is spanned instead). Values are valid explicit settings at the
// given workload scale: for Scaled knobs the low end rises to
// ceil(Min/scale) so every value survives the post-scaling floor check,
// and at scale > 1 the high end drops to floor(Max/scale). Small integer
// domains (categorical selector knobs such as mix presets) enumerate
// every value. The default itself is excluded — the baseline replication
// already measures it — unless the knob Requires companions, in which
// case the grid scenario differs from the baseline even at the default
// value. May return fewer than points values, or none when the scale
// leaves no valid range.
func (s KnobSpec) Grid(points int, scale float64) []float64 {
	if points < 1 {
		points = DefaultGridPoints
	}
	if scale <= 0 {
		scale = 1
	}
	keepDefault := len(s.Requires) > 0
	if len(s.GridValues) > 0 {
		// Hand-picked grid: take up to points values, skipping the
		// default unless companions make it a distinct scenario.
		var out []float64
		for _, v := range s.GridValues {
			if len(out) >= points {
				break
			}
			if v == s.Default && !keepDefault {
				continue
			}
			out = append(out, v)
		}
		return out
	}
	lo, hi := s.Min, s.Max
	if s.Scaled && scale < 1 {
		lo = math.Ceil(s.Min / scale)
		// Guard against float rounding: the value the experiment sees is
		// int(lo*scale), which must not dip below the floor.
		for int(lo*scale) < int(s.Min) && lo <= hi {
			lo++
		}
	}
	if s.Scaled && scale > 1 {
		hi = math.Floor(s.Max / scale)
		for hi >= lo && float64(int(hi*scale)) > s.Max {
			hi--
		}
	}
	if lo > hi {
		return nil
	}
	if s.Integer && hi-lo < float64(points) {
		// Categorical / tiny domain: enumerate every value.
		var out []float64
		for v := lo; v <= hi; v++ {
			if v == s.Default && !keepDefault {
				continue
			}
			out = append(out, v)
		}
		return out
	}
	stretch := 2 * s.Default
	switch {
	case stretch > hi:
		stretch = hi
	case stretch <= lo:
		// The default sits at or below the (scale-adjusted) floor: span a
		// modest band above the floor instead — 4× the floor, or the whole
		// range when the floor is 0.
		if lo > 0 {
			stretch = math.Min(hi, 4*lo)
		} else {
			stretch = hi
		}
	}
	out := make([]float64, 0, points)
	for i := 0; i < points; i++ {
		v := lo
		if points > 1 {
			v = lo + float64(i)*(stretch-lo)/float64(points-1)
		}
		if s.Integer {
			v = math.Round(v)
		} else {
			// Round to 4 significant digits so grid labels stay readable
			// (0.7425, not 0.7424999999999999); clamp in case the rounding
			// crossed a bound.
			if r, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64); err == nil {
				v = math.Min(math.Max(r, lo), stretch)
			}
		}
		if v == s.Default && !keepDefault {
			continue
		}
		if len(out) > 0 && v == out[len(out)-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}

// SensitivityGrids builds the default sensitivity grid for every
// registered knob: name -> swept values from KnobSpec.Grid at the given
// grid size and workload scale. Knobs whose scale-adjusted range is
// empty are omitted.
func SensitivityGrids(points int, scale float64) map[string][]float64 {
	out := make(map[string][]float64, len(knobSpecs))
	for name, s := range knobSpecs {
		if g := s.Grid(points, scale); len(g) > 0 {
			out[name] = g
		}
	}
	return out
}

// KnobSpecs is the registry of sweepable knobs. Experiments read knobs
// via knobInt/knobFloat (which apply the spec default), the shared run
// scaffold enforces Min/Max centrally, and decentsim's -set flag accepts
// only names registered here. Every experiment E01–E19 registers its
// load-bearing parameters; defaults equal the documented baseline
// literals, so knob-free runs are byte-identical to the baseline. New
// knobs are added here; DESIGN.md's table is rendered from this registry
// (TestDesignTablesCurrent, -update rewrites it).
func KnobSpecs() map[string]KnobSpec {
	out := make(map[string]KnobSpec, len(knobSpecs))
	for name, s := range knobSpecs {
		out[name] = s
	}
	return out
}

// knobSpecs is the shared registry instance; exported callers get a copy
// from KnobSpecs, internal readers (called several times per experiment
// run) use this map directly.
var knobSpecs = map[string]KnobSpec{
	// E01 — market concentration.
	"e01.customers":      {Default: 100_000, Min: 1000, Max: 10_000_000, Integer: true, Scaled: true, Desc: "E01: customers choosing providers, before scaling"},
	"e01.cdnproviders":   {Default: 20, Min: 3, Max: 500, Integer: true, Desc: "E01: providers in the CDN market"},
	"e01.cloudproviders": {Default: 50, Min: 5, Max: 500, Integer: true, Desc: "E01: providers in the cloud market"},
	"e01.exploration":    {Default: 0.35, Min: 0.01, Max: 1, Desc: "E01: probability a customer ignores popularity and explores"},

	// E02 — free riding.
	"e02.peers":           {Default: 500, Min: 50, Max: 50_000, Integer: true, Scaled: true, Desc: "E02: Gnutella overlay size before scaling"},
	"e02.freeriders":      {Default: 0.66, Min: 0, Max: 0.99, Desc: "E02: fraction of Gnutella peers sharing nothing"},
	"e02.swarmfreeriders": {Default: 0.3, Min: 0, Max: 0.9, Desc: "E02: free-rider fraction in the tit-for-tat swarm"},
	"e02.queries":         {Default: 200, Min: 30, Max: 100_000, Integer: true, Scaled: true, Desc: "E02: flooded queries measured, before scaling"},
	"e02.swarmpeers":      {Default: 100, Min: 30, Max: 10_000, Integer: true, Scaled: true, Desc: "E02: BitTorrent swarm size before scaling"},

	// E03 — DHT lookup latency.
	"e03.nodes":   {Default: 1500, Min: 200, Max: 100_000, Integer: true, Scaled: true, Desc: "E03: DHT network size before scaling"},
	"e03.lookups": {Default: 150, Min: 30, Max: 100_000, Integer: true, Scaled: true, Desc: "E03: lookups measured per deployment"},

	// E04 — sybil/eclipse attacks.
	"e04.honest":    {Default: 800, Min: 150, Max: 20_000, Integer: true, Scaled: true, Desc: "E04: honest DHT population before scaling"},
	"e04.lookups":   {Default: 60, Min: 20, Max: 10_000, Integer: true, Scaled: true, Desc: "E04: lookups measured per attack size, before scaling"},
	"e04.targetids": {Default: 16, Min: 2, Max: 512, Integer: true, Desc: "E04: sybil identities in the targeted-eclipse attack"},

	// E05 — one-hop vs multi-hop.
	"e05.nodes":       {Default: 1024, Min: 128, Max: 65_536, Integer: true, Scaled: true, Desc: "E05: overlay size before scaling"},
	"e05.lookups":     {Default: 100, Min: 20, Max: 100_000, Integer: true, Scaled: true, Desc: "E05: lookups measured per overlay, before scaling"},
	"e05.sessionmins": {Default: 60, Min: 5, Max: 1440, Integer: true, Desc: "E05: mean session and gap (minutes) in the maintenance model"},

	// E06 — throughput gap.
	"e06.blocks":     {Default: 300, Min: 50, Max: 100_000, Integer: true, Scaled: true, Desc: "E06: mined blocks in the Bitcoin run, before scaling"},
	"e06.shards":     {Default: 64, Min: 1, Max: 4096, Integer: true, Desc: "E06: shards in the cloud OLTP baseline"},
	"e06.txbytes":    {Default: 400, Min: 100, Max: 10_000, Integer: true, Desc: "E06: mean transaction size (bytes) in the mining run"},
	"e06.crossshard": {Default: 0.1, Min: 0, Max: 1, Desc: "E06: fraction of cloud transactions crossing shards"},

	// E07 — difficulty retargeting.
	"e07.window":      {Default: 50, Min: 10, Max: 10_000, Integer: true, Scaled: true, Desc: "E07: retarget window (blocks), before scaling"},
	"e07.epochs":      {Default: 6, Min: 2, Max: 16, Integer: true, Desc: "E07: hashpower-doubling epochs"},
	"e07.epochblocks": {Default: 100, Min: 20, Max: 10_000, Integer: true, Scaled: true, Desc: "E07: target intervals per epoch, before scaling"},

	// E08 — fork rate vs interval.
	"e08.blocks":      {Default: 1500, Min: 200, Max: 1_000_000, Integer: true, Scaled: true, Desc: "E08: blocks mined per interval setting, before scaling"},
	"e08.propagation": {Default: 6, Min: 0.5, Max: 120, Desc: "E08: mean block propagation delay (seconds)"},
	"e08.mix":         {Default: 0, Min: 0, Max: netmodel.NumMixPresets, Integer: true, Desc: "E08: miner region mix preset for WAN-backed relay (0 = abstract propagation)"},
	"e08.loss":        {Default: 0, Min: 0, Max: 0.5, Requires: map[string]float64{"e08.mix": 1}, Desc: "E08: per-message loss probability on the WAN relay (needs e08.mix > 0)"},

	// E09 — selfish mining. The gamma floor keeps the contested
	// scenario distinct from the fixed gamma=0 pass: 0 would silently
	// duplicate it.
	"e09.blocks": {Default: 300_000, Min: 50_000, Max: 10_000_000, Integer: true, Scaled: true, Desc: "E09: state-machine steps per (alpha, gamma) point, before scaling"},
	"e09.gamma":  {Default: 0.5, Min: 0.01, Max: 1, Desc: "E09: honest split toward the attacker in the contested scenario"},

	// E10 — mining centralization.
	"e10.epochs":    {Default: 24, Min: 6, Max: 240, Integer: true, Desc: "E10: arms-race epochs (months)"},
	"e10.hobbyists": {Default: 500, Min: 50, Max: 100_000, Integer: true, Scaled: true, Desc: "E10: hobbyist miners before scaling"},
	"e10.farms":     {Default: 20, Min: 2, Max: 1000, Integer: true, Scaled: true, Desc: "E10: industrial farms before scaling"},
	"e10.miners":    {Default: 10_000, Min: 100, Max: 1_000_000, Integer: true, Scaled: true, Desc: "E10: miners choosing pools, before scaling"},

	// E11 — energy at equilibrium.
	"e11.price": {Default: 7500, Min: 100, Max: 1_000_000, Desc: "E11: mid coin price (USD); the table spans half to double"},
	"e11.tps":   {Default: 4, Min: 0.1, Max: 100_000, Desc: "E11: throughput used for the per-transaction energy figure"},

	// E12 — node resource growth.
	"e12.nodes":   {Default: 10_000, Min: 1000, Max: 1_000_000, Integer: true, Scaled: true, Desc: "E12: node population before scaling"},
	"e12.txbytes": {Default: 400, Min: 50, Max: 100_000, Integer: true, Desc: "E12: mean transaction size (bytes)"},
	"e12.years":   {Default: 10, Min: 2, Max: 100, Integer: true, Desc: "E12: years of chain growth simulated"},
	"e12.diskgb":  {Default: 320, Min: 10, Max: 1_000_000, Desc: "E12: median node disk capacity (GB)"},

	// E13 — permissioned vs PoW.
	"e13.rate":     {Default: 2000, Min: 10, Max: 1_000_000, Desc: "E13: offered load (requests/second)"},
	"e13.duration": {Default: 10, Min: 3, Max: 3600, Integer: true, Scaled: true, Desc: "E13: load duration (seconds), before scaling"},
	"e13.batch":    {Default: 200, Min: 1, Max: 10_000, Integer: true, Desc: "E13: PBFT batch size"},
	// Raft requires an odd cluster size, so the grid is hand-picked
	// (the computed floor→stretch interpolation would land on even n).
	"e13.raftnodes": {Default: 5, Min: 3, Max: 101, Integer: true, GridValues: []float64{3, 7, 9, 11, 21}, Desc: "E13: Raft cluster size"},

	// E14 — edge vs cloud.
	"e14.clients":   {Default: 2000, Min: 100, Max: 1_000_000, Integer: true, Scaled: true, Desc: "E14: simulated clients before scaling"},
	"e14.edgenodes": {Default: 50, Min: 5, Max: 10_000, Integer: true, Desc: "E14: edge nano-datacenters"},
	"e14.clouddcs":  {Default: 3, Min: 1, Max: 100, Integer: true, Desc: "E14: regional cloud datacenters"},
	"e14.budgetms":  {Default: 20, Min: 1, Max: 1000, Desc: "E14: interactive latency budget (ms)"},
	"e14.records":   {Default: 50, Min: 10, Max: 100_000, Integer: true, Scaled: true, Desc: "E14: audit records submitted, before scaling"},

	// E15 — churn.
	"e15.nodes":   {Default: 600, Min: 120, Max: 50_000, Integer: true, Scaled: true, Desc: "E15: overlay size before scaling"},
	"e15.lookups": {Default: 120, Min: 30, Max: 100_000, Integer: true, Scaled: true, Desc: "E15: lookups measured per churn level, before scaling"},
	// minsession's cap keeps it strictly below the fixed 30m ladder
	// level: 30+ would reorder or duplicate the churn levels and fail
	// the degradation checks by construction.
	"e15.minsession": {Default: 8, Min: 1, Max: 29, Integer: true, Desc: "E15: shortest mean session length (minutes) tried"},

	// E16 — channels.
	"e16.txs":       {Default: 40, Min: 10, Max: 100_000, Integer: true, Scaled: true, Desc: "E16: transactions per channel before scaling"},
	"e16.blocksize": {Default: 10, Min: 1, Max: 1000, Integer: true, Desc: "E16: envelopes per block"},
	"e16.endorsers": {Default: 2, Min: 1, Max: 3, Integer: true, Desc: "E16: endorsements required per transaction"},

	// E17 — double spend.
	"e17.trials": {Default: 20_000, Min: 2000, Max: 10_000_000, Integer: true, Scaled: true, Desc: "E17: monte-carlo trials per (q, z) point, before scaling"},
	"e17.risk":   {Default: 0.001, Min: 0.000_01, Max: 0.5, Desc: "E17: acceptable double-spend probability in the confirmation note"},

	// E18 — off-chain channels.
	"e18.nodes":      {Default: 60, Min: 10, Max: 10_000, Integer: true, Desc: "E18: payment-network size"},
	"e18.payments":   {Default: 20_000, Min: 2000, Max: 10_000_000, Integer: true, Scaled: true, Desc: "E18: payments attempted, before scaling"},
	"e18.hubs":       {Default: 3, Min: 1, Max: 20, Integer: true, Desc: "E18: hubs in the hub-and-spoke topology"},
	"e18.meshdegree": {Default: 6, Min: 2, Max: 30, Integer: true, Desc: "E18: channel degree in the mesh topology"},
	"e18.capital":    {Default: 600_000, Min: 1000, Max: 1_000_000_000, Desc: "E18: total locked capital shared by both topologies"},
	"e18.mix":        {Default: 0, Min: 0, Max: netmodel.NumMixPresets, Integer: true, Desc: "E18: node region mix preset for WAN HTLC latency accounting (0 = off)"},

	// E19 — geo-partitioned PoW.
	"e19.miners":    {Default: 12, Min: 4, Max: 500, Integer: true, Desc: "E19: miners on the WAN topology"},
	"e19.blocks":    {Default: 600, Min: 100, Max: 1_000_000, Integer: true, Scaled: true, Desc: "E19: target block intervals simulated, before scaling"},
	"e19.mix":       {Default: 1, Min: 1, Max: netmodel.NumMixPresets, Integer: true, Desc: "E19: miner region mix preset"},
	"e19.loss":      {Default: 0, Min: 0, Max: 0.5, Desc: "E19: per-message loss probability on the WAN relay"},
	"e19.partstart": {Default: 0.3, Min: 0.05, Max: 0.7, Desc: "E19: partition window start as a fraction of the run"},
	"e19.partdur":   {Default: 0.3, Min: 0.05, Max: 0.5, Desc: "E19: partition window length as a fraction of the run"},
}

// knobInt reads a registered knob with its spec default.
func knobInt(cfg core.Config, name string) int {
	return cfg.ParamInt(name, int(knobSpecs[name].Default))
}

// knobFloat reads a registered non-integer knob with its spec default.
func knobFloat(cfg core.Config, name string) float64 {
	return cfg.Param(name, knobSpecs[name].Default)
}

// knobIndex reads a registered integer selector knob whose valid range
// includes 0 (an "off" value). ParamInt floors its result at 1, so routing
// such knobs through knobInt would silently turn the feature on in
// knob-free runs; the raw Param value is what the spec validated.
func knobIndex(cfg core.Config, name string) int {
	return int(knobFloat(cfg, name))
}

// scaledSize resolves a workload knob the experiment multiplies by -scale:
// it scales the knob and clamps implicit (default) values to the
// measurement floor. Implicit values above Max are left alone — a large
// -scale on a knob-free run keeps its pre-knob behavior — and explicit
// values cannot leave [Min, Max] here: ValidateKnobs refused them before
// the runner started.
func scaledSize(cfg core.Config, knob string) int {
	return max(cfg.ScaleInt(knobInt(cfg, knob)), int(knobSpecs[knob].Min))
}

// ValidateKnobs is the knob rule, applied by every Run before the runner
// starts and by report.Check before any report job is scheduled. It rejects
// unregistered knob names — a typo'd knob the experiment never reads would
// silently multiply a sweep into duplicate identical groups — knobs owned
// by a different experiment, explicitly-set values outside their spec,
// which clamping would likewise collapse into identical groups, and, once
// every raw value has passed, Scaled knobs whose explicit value cfg.Scale
// pushes outside [Min, Max]. The CLI and harness also validate ownership
// at parse/expansion time; this check covers hand-built job lists and
// direct Registry.Run calls.
func ValidateKnobs(id string, cfg core.Config) error {
	cfg = cfg.WithDefaults() // an unset Scale means 1, as it does to Run
	names := make([]string, 0, len(cfg.Params))
	for name := range cfg.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := cfg.Params[name]
		spec, ok := knobSpecs[name]
		if !ok {
			return fmt.Errorf("experiments: unknown knob %q", name)
		}
		if owner := core.KnobOwner(name); owner != "" && !strings.EqualFold(owner, id) {
			return fmt.Errorf("experiments: knob %s does not apply to experiment %s", name, id)
		}
		// NaN compares false against both bounds below.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("experiments: knob %s=%g is not a finite number", name, v)
		}
		if v < spec.Min {
			return fmt.Errorf("experiments: knob %s=%g is below the measurement floor %g", name, v, spec.Min)
		}
		if spec.Max > 0 && v > spec.Max {
			return fmt.Errorf("experiments: knob %s=%g is above the maximum %g", name, v, spec.Max)
		}
		// Fractional values for integer knobs would round to the same
		// workload and silently duplicate sweep groups.
		if spec.Integer && v != math.Trunc(v) {
			return fmt.Errorf("experiments: knob %s=%g must be an integer", name, v)
		}
	}
	for _, name := range names {
		spec := knobSpecs[name]
		if !spec.Scaled {
			continue
		}
		raw := cfg.ParamInt(name, 0) // set explicitly: the default is never read
		v := cfg.ScaleInt(raw)
		if min := int(spec.Min); v < min {
			return fmt.Errorf("%s=%d (scaled to %d at scale %g) falls below the measurement floor %d; raise the knob or -scale",
				name, raw, v, cfg.Scale, min)
		}
		if spec.Max > 0 && float64(v) > spec.Max {
			return fmt.Errorf("%s=%d (scaled to %d at scale %g) exceeds the maximum %g; lower the knob or -scale",
				name, raw, v, cfg.Scale, spec.Max)
		}
	}
	return nil
}

// Registry returns the full experiment registry in paper order.
func Registry() (*core.Registry, error) {
	return core.NewRegistry(
		e01Market(),
		e02FreeRiding(),
		e03DHTLookup(),
		e04Sybil(),
		e05OneHop(),
		e06Throughput(),
		e07Difficulty(),
		e08ForkRate(),
		e09Selfish(),
		e10MiningCentralization(),
		e11Energy(),
		e12NodeCost(),
		e13PermissionedVsPoW(),
		e14EdgeVsCloud(),
		e15Churn(),
		e16Channels(),
		e17DoubleSpend(),
		e18OffChain(),
		e19GeoPartitionedPoW(),
	)
}
