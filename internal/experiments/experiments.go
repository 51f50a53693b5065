// Package experiments implements one runner per paper claim (E01–E19),
// composing the substrate packages into the tables and figures listed in
// DESIGN.md. Each runner returns a core.Result whose checks encode the
// claim's expected shape.
package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
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
// multiplies by -scale (resolved through intKnob.get), whose explicit
// values must therefore survive the post-scaling floor/max checks.
// Requires carries companion knob assignments merged into every
// sensitivity-grid scenario (e.g. e08.loss needs a WAN relay, so its
// grid sets e08.mix=1); ValidateKnobs refuses the knob away from its
// default while a companion sits at the companion's own default.
// GridValues overrides the computed default grid for knobs whose valid
// values the linear floor→stretch interpolation cannot know (e.g.
// e13.raftnodes must be odd).
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
// through their handles (which apply the spec default), the shared run
// scaffold enforces Min/Max centrally, and decentsim's -set flag accepts
// only names registered here. Every experiment E01–E19 registers its
// load-bearing parameters; defaults equal the documented baseline
// literals, so knob-free runs are byte-identical to the baseline. New
// knobs are declared as handles below; DESIGN.md's table is rendered from
// this registry (TestDesignTablesCurrent, -update rewrites it).
func KnobSpecs() map[string]KnobSpec {
	out := make(map[string]KnobSpec, len(knobSpecs))
	for name, s := range knobSpecs {
		out[name] = s
	}
	return out
}

// knobSpecs is the shared registry instance; exported callers get a copy
// from KnobSpecs, the handle readers use this map directly. Each handle
// below registers its spec here at init.
var knobSpecs = map[string]KnobSpec{}

var (
	// E01 — market concentration.
	e01Customers      = newIntKnob("e01.customers", KnobSpec{Default: 100_000, Min: 1000, Max: 10_000_000, Scaled: true, Desc: "E01: customers choosing providers, before scaling"})
	e01CDNProviders   = newIntKnob("e01.cdnproviders", KnobSpec{Default: 20, Min: 3, Max: 500, Desc: "E01: providers in the CDN market"})
	e01CloudProviders = newIntKnob("e01.cloudproviders", KnobSpec{Default: 50, Min: 5, Max: 500, Desc: "E01: providers in the cloud market"})
	e01Exploration    = newFloatKnob("e01.exploration", KnobSpec{Default: 0.35, Min: 0.01, Max: 1, Desc: "E01: probability a customer ignores popularity and explores"})

	// E02 — free riding.
	e02Peers           = newIntKnob("e02.peers", KnobSpec{Default: 500, Min: 50, Max: 50_000, Scaled: true, Desc: "E02: Gnutella overlay size before scaling"})
	e02FreeRiders      = newFloatKnob("e02.freeriders", KnobSpec{Default: 0.66, Min: 0, Max: 0.99, Desc: "E02: fraction of Gnutella peers sharing nothing"})
	e02SwarmFreeRiders = newFloatKnob("e02.swarmfreeriders", KnobSpec{Default: 0.3, Min: 0, Max: 0.9, Desc: "E02: free-rider fraction in the tit-for-tat swarm"})
	e02Queries         = newIntKnob("e02.queries", KnobSpec{Default: 200, Min: 30, Max: 100_000, Scaled: true, Desc: "E02: flooded queries measured, before scaling"})
	e02SwarmPeers      = newIntKnob("e02.swarmpeers", KnobSpec{Default: 100, Min: 30, Max: 10_000, Scaled: true, Desc: "E02: BitTorrent swarm size before scaling"})

	// E03 — DHT lookup latency.
	e03Nodes   = newIntKnob("e03.nodes", KnobSpec{Default: 1500, Min: 200, Max: 100_000, Scaled: true, Desc: "E03: DHT network size before scaling"})
	e03Lookups = newIntKnob("e03.lookups", KnobSpec{Default: 150, Min: 30, Max: 100_000, Scaled: true, Desc: "E03: lookups measured per deployment"})

	// E04 — sybil/eclipse attacks.
	e04Honest    = newIntKnob("e04.honest", KnobSpec{Default: 800, Min: 150, Max: 20_000, Scaled: true, Desc: "E04: honest DHT population before scaling"})
	e04Lookups   = newIntKnob("e04.lookups", KnobSpec{Default: 60, Min: 20, Max: 10_000, Scaled: true, Desc: "E04: lookups measured per attack size, before scaling"})
	e04TargetIDs = newIntKnob("e04.targetids", KnobSpec{Default: 16, Min: 2, Max: 512, Desc: "E04: sybil identities in the targeted-eclipse attack"})

	// E05 — one-hop vs multi-hop.
	e05Nodes       = newIntKnob("e05.nodes", KnobSpec{Default: 1024, Min: 128, Max: 65_536, Scaled: true, Desc: "E05: overlay size before scaling"})
	e05Lookups     = newIntKnob("e05.lookups", KnobSpec{Default: 100, Min: 20, Max: 100_000, Scaled: true, Desc: "E05: lookups measured per overlay, before scaling"})
	e05SessionMins = newIntKnob("e05.sessionmins", KnobSpec{Default: 60, Min: 5, Max: 1440, Desc: "E05: mean session and gap (minutes) in the maintenance model"})

	// E06 — throughput gap.
	e06Blocks     = newIntKnob("e06.blocks", KnobSpec{Default: 300, Min: 50, Max: 100_000, Scaled: true, Desc: "E06: mined blocks in the Bitcoin run, before scaling"})
	e06Shards     = newIntKnob("e06.shards", KnobSpec{Default: 64, Min: 1, Max: 4096, Desc: "E06: shards in the cloud OLTP baseline"})
	e06TxBytes    = newIntKnob("e06.txbytes", KnobSpec{Default: 400, Min: 100, Max: 10_000, Desc: "E06: mean transaction size (bytes) in the mining run"})
	e06CrossShard = newFloatKnob("e06.crossshard", KnobSpec{Default: 0.1, Min: 0, Max: 1, Desc: "E06: fraction of cloud transactions crossing shards"})

	// E07 — difficulty retargeting.
	e07Window      = newIntKnob("e07.window", KnobSpec{Default: 50, Min: 10, Max: 10_000, Scaled: true, Desc: "E07: retarget window (blocks), before scaling"})
	e07Epochs      = newIntKnob("e07.epochs", KnobSpec{Default: 6, Min: 2, Max: 16, Desc: "E07: hashpower-doubling epochs"})
	e07EpochBlocks = newIntKnob("e07.epochblocks", KnobSpec{Default: 100, Min: 20, Max: 10_000, Scaled: true, Desc: "E07: target intervals per epoch, before scaling"})

	// E08 — fork rate vs interval.
	e08Blocks      = newIntKnob("e08.blocks", KnobSpec{Default: 1500, Min: 200, Max: 1_000_000, Scaled: true, Desc: "E08: blocks mined per interval setting, before scaling"})
	e08Propagation = newFloatKnob("e08.propagation", KnobSpec{Default: 6, Min: 0.5, Max: 120, Desc: "E08: mean block propagation delay (seconds)"})
	e08Mix         = newIntKnob("e08.mix", KnobSpec{Default: 0, Min: 0, Max: netmodel.NumMixPresets, Desc: "E08: miner region mix preset for WAN-backed relay (0 = abstract propagation)"})
	e08Loss        = newFloatKnob("e08.loss", KnobSpec{Default: 0, Min: 0, Max: 0.5, Requires: map[string]float64{e08Mix.name: 1}, Desc: "E08: per-message loss probability on the WAN relay (needs e08.mix > 0)"})

	// E09 — selfish mining. The gamma floor keeps the contested
	// scenario distinct from the fixed gamma=0 pass: 0 would silently
	// duplicate it.
	e09Blocks = newIntKnob("e09.blocks", KnobSpec{Default: 300_000, Min: 50_000, Max: 10_000_000, Scaled: true, Desc: "E09: state-machine steps per (alpha, gamma) point, before scaling"})
	e09Gamma  = newFloatKnob("e09.gamma", KnobSpec{Default: 0.5, Min: 0.01, Max: 1, Desc: "E09: honest split toward the attacker in the contested scenario"})

	// E10 — mining centralization.
	e10Epochs    = newIntKnob("e10.epochs", KnobSpec{Default: 24, Min: 6, Max: 240, Desc: "E10: arms-race epochs (months)"})
	e10Hobbyists = newIntKnob("e10.hobbyists", KnobSpec{Default: 500, Min: 50, Max: 100_000, Scaled: true, Desc: "E10: hobbyist miners before scaling"})
	e10Farms     = newIntKnob("e10.farms", KnobSpec{Default: 20, Min: 2, Max: 1000, Scaled: true, Desc: "E10: industrial farms before scaling"})
	e10Miners    = newIntKnob("e10.miners", KnobSpec{Default: 10_000, Min: 100, Max: 1_000_000, Scaled: true, Desc: "E10: miners choosing pools, before scaling"})

	// E11 — energy at equilibrium.
	e11Price = newFloatKnob("e11.price", KnobSpec{Default: 7500, Min: 100, Max: 1_000_000, Desc: "E11: mid coin price (USD); the table spans half to double"})
	e11TPS   = newFloatKnob("e11.tps", KnobSpec{Default: 4, Min: 0.1, Max: 100_000, Desc: "E11: throughput used for the per-transaction energy figure"})

	// E12 — node resource growth.
	e12Nodes   = newIntKnob("e12.nodes", KnobSpec{Default: 10_000, Min: 1000, Max: 1_000_000, Scaled: true, Desc: "E12: node population before scaling"})
	e12TxBytes = newIntKnob("e12.txbytes", KnobSpec{Default: 400, Min: 50, Max: 100_000, Desc: "E12: mean transaction size (bytes)"})
	e12Years   = newIntKnob("e12.years", KnobSpec{Default: 10, Min: 2, Max: 100, Desc: "E12: years of chain growth simulated"})
	e12DiskGB  = newFloatKnob("e12.diskgb", KnobSpec{Default: 320, Min: 10, Max: 1_000_000, Desc: "E12: median node disk capacity (GB)"})

	// E13 — permissioned vs PoW.
	e13Rate     = newFloatKnob("e13.rate", KnobSpec{Default: 2000, Min: 10, Max: 1_000_000, Desc: "E13: offered load (requests/second)"})
	e13Duration = newIntKnob("e13.duration", KnobSpec{Default: 10, Min: 3, Max: 3600, Scaled: true, Desc: "E13: load duration (seconds), before scaling"})
	e13Batch    = newIntKnob("e13.batch", KnobSpec{Default: 200, Min: 1, Max: 10_000, Desc: "E13: PBFT batch size"})
	// Raft requires an odd cluster size, so the grid is hand-picked
	// (the computed floor→stretch interpolation would land on even n).
	e13RaftNodes = newIntKnob("e13.raftnodes", KnobSpec{Default: 5, Min: 3, Max: 101, GridValues: []float64{3, 7, 9, 11, 21}, Desc: "E13: Raft cluster size"})

	// E14 — edge vs cloud.
	e14Clients   = newIntKnob("e14.clients", KnobSpec{Default: 2000, Min: 100, Max: 1_000_000, Scaled: true, Desc: "E14: simulated clients before scaling"})
	e14EdgeNodes = newIntKnob("e14.edgenodes", KnobSpec{Default: 50, Min: 5, Max: 10_000, Desc: "E14: edge nano-datacenters"})
	e14CloudDCs  = newIntKnob("e14.clouddcs", KnobSpec{Default: 3, Min: 1, Max: 100, Desc: "E14: regional cloud datacenters"})
	e14BudgetMs  = newFloatKnob("e14.budgetms", KnobSpec{Default: 20, Min: 1, Max: 1000, Desc: "E14: interactive latency budget (ms)"})
	e14Records   = newIntKnob("e14.records", KnobSpec{Default: 50, Min: 10, Max: 100_000, Scaled: true, Desc: "E14: audit records submitted, before scaling"})

	// E15 — churn.
	e15Nodes   = newIntKnob("e15.nodes", KnobSpec{Default: 600, Min: 120, Max: 50_000, Scaled: true, Desc: "E15: overlay size before scaling"})
	e15Lookups = newIntKnob("e15.lookups", KnobSpec{Default: 120, Min: 30, Max: 100_000, Scaled: true, Desc: "E15: lookups measured per churn level, before scaling"})
	// minsession's cap keeps it strictly below the fixed 30m ladder
	// level: 30+ would reorder or duplicate the churn levels and fail
	// the degradation checks by construction.
	e15MinSession = newIntKnob("e15.minsession", KnobSpec{Default: 8, Min: 1, Max: 29, Desc: "E15: shortest mean session length (minutes) tried"})

	// E16 — channels.
	e16Txs       = newIntKnob("e16.txs", KnobSpec{Default: 40, Min: 10, Max: 100_000, Scaled: true, Desc: "E16: transactions per channel before scaling"})
	e16BlockSize = newIntKnob("e16.blocksize", KnobSpec{Default: 10, Min: 1, Max: 1000, Desc: "E16: envelopes per block"})
	e16Endorsers = newIntKnob("e16.endorsers", KnobSpec{Default: 2, Min: 1, Max: 3, Desc: "E16: endorsements required per transaction"})

	// E17 — double spend.
	e17Trials = newIntKnob("e17.trials", KnobSpec{Default: 20_000, Min: 2000, Max: 10_000_000, Scaled: true, Desc: "E17: monte-carlo trials per (q, z) point, before scaling"})
	e17Risk   = newFloatKnob("e17.risk", KnobSpec{Default: 0.001, Min: 0.000_01, Max: 0.5, Desc: "E17: acceptable double-spend probability in the confirmation note"})

	// E18 — off-chain channels.
	e18Nodes      = newIntKnob("e18.nodes", KnobSpec{Default: 60, Min: 10, Max: 10_000, Desc: "E18: payment-network size"})
	e18Payments   = newIntKnob("e18.payments", KnobSpec{Default: 20_000, Min: 2000, Max: 10_000_000, Scaled: true, Desc: "E18: payments attempted, before scaling"})
	e18Hubs       = newIntKnob("e18.hubs", KnobSpec{Default: 3, Min: 1, Max: 20, Desc: "E18: hubs in the hub-and-spoke topology"})
	e18MeshDegree = newIntKnob("e18.meshdegree", KnobSpec{Default: 6, Min: 2, Max: 30, Desc: "E18: channel degree in the mesh topology"})
	e18Capital    = newFloatKnob("e18.capital", KnobSpec{Default: 600_000, Min: 1000, Max: 1_000_000_000, Desc: "E18: total locked capital shared by both topologies"})
	e18Mix        = newIntKnob("e18.mix", KnobSpec{Default: 0, Min: 0, Max: netmodel.NumMixPresets, Desc: "E18: node region mix preset for WAN HTLC latency accounting (0 = off)"})

	// E19 — geo-partitioned PoW.
	e19Miners    = newIntKnob("e19.miners", KnobSpec{Default: 12, Min: 4, Max: 500, Desc: "E19: miners on the WAN topology"})
	e19Blocks    = newIntKnob("e19.blocks", KnobSpec{Default: 600, Min: 100, Max: 1_000_000, Scaled: true, Desc: "E19: target block intervals simulated, before scaling"})
	e19Mix       = newIntKnob("e19.mix", KnobSpec{Default: 1, Min: 1, Max: netmodel.NumMixPresets, Desc: "E19: miner region mix preset"})
	e19Loss      = newFloatKnob("e19.loss", KnobSpec{Default: 0, Min: 0, Max: 0.5, Desc: "E19: per-message loss probability on the WAN relay"})
	e19PartStart = newFloatKnob("e19.partstart", KnobSpec{Default: 0.3, Min: 0.05, Max: 0.7, Desc: "E19: partition window start as a fraction of the run"})
	e19PartDur   = newFloatKnob("e19.partdur", KnobSpec{Default: 0.3, Min: 0.05, Max: 0.5, Desc: "E19: partition window length as a fraction of the run"})
)

// intKnob is the handle of a registered whole-number knob; floatKnob of a
// real-valued one. A runner reads a knob only through its handle, so a
// misspelled knob does not compile and a registered knob no runner reads
// is an unreached declaration (lint.TestReachability).
type (
	intKnob   struct{ name string }
	floatKnob struct{ name string }
)

// newIntKnob registers an integer knob (it sets spec.Integer) and returns
// its handle; newFloatKnob registers a real-valued one.
func newIntKnob(name string, spec KnobSpec) intKnob {
	spec.Integer = true
	registerKnob(name, spec)
	return intKnob{name}
}

func newFloatKnob(name string, spec KnobSpec) floatKnob {
	registerKnob(name, spec)
	return floatKnob{name}
}

// registerKnob adds a spec to the registry; a name registered twice
// panics at init.
func registerKnob(name string, spec KnobSpec) {
	if _, dup := knobSpecs[name]; dup {
		panic("experiments: knob " + name + " registered twice")
	}
	knobSpecs[name] = spec
}

// get reads the knob with its spec default. A Scaled knob is multiplied
// by -scale and implicit (default) values are clamped to the measurement
// floor. Implicit values above Max are left alone — a large -scale on a
// knob-free run keeps its pre-knob behavior — and explicit values cannot
// leave [Min, Max] here: ValidateKnobs refused them, and any fraction,
// before the runner started.
func (k intKnob) get(cfg core.Config) int {
	spec := knobSpecs[k.name]
	v := int(cfg.Param(k.name, spec.Default))
	if spec.Scaled {
		return max(cfg.ScaleInt(v), int(spec.Min))
	}
	return v
}

// get reads the knob with its spec default.
func (k floatKnob) get(cfg core.Config) float64 {
	return cfg.Param(k.name, knobSpecs[k.name].Default)
}

// ValidateKnobs is the knob rule, applied by every Run before the runner
// starts and by report.Check before any report job is scheduled. It rejects
// unregistered knob names — a typo'd knob the experiment never reads would
// silently multiply a sweep into duplicate identical groups — knobs owned
// by a different experiment, explicitly-set values outside their spec,
// which clamping would likewise collapse into identical groups, and, once
// knobs set away from their default while a Requires companion sits at its
// own default (e08.loss without a WAN relay), and, once every raw value
// has passed, Scaled knobs whose explicit value cfg.Scale pushes outside
// [Min, Max]. The CLI and harness also validate ownership at
// parse/expansion time; this check covers hand-built job lists and direct
// Registry.Run calls.
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
		if v > spec.Max {
			return fmt.Errorf("experiments: knob %s=%g is above the maximum %g", name, v, spec.Max)
		}
		// Fractional values for integer knobs would round to the same
		// workload and silently duplicate sweep groups.
		if spec.Integer && v != math.Trunc(v) {
			return fmt.Errorf("experiments: knob %s=%g must be an integer", name, v)
		}
		if v == spec.Default {
			continue
		}
		for _, comp := range slices.Sorted(maps.Keys(spec.Requires)) {
			if def := knobSpecs[comp].Default; cfg.Param(comp, def) == def {
				return fmt.Errorf("experiments: knob %s=%g requires %s away from its default %g (e.g. %s=%g)",
					name, v, comp, def, comp, spec.Requires[comp])
			}
		}
	}
	for _, name := range names {
		spec := knobSpecs[name]
		if !spec.Scaled {
			continue
		}
		raw := int(cfg.Params[name]) // a whole number in [Min, Max]: it passed above
		v := cfg.ScaleInt(raw)
		if min := int(spec.Min); v < min {
			return fmt.Errorf("%s=%d (scaled to %d at scale %g) falls below the measurement floor %d; raise the knob or -scale",
				name, raw, v, cfg.Scale, min)
		}
		if float64(v) > spec.Max {
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
