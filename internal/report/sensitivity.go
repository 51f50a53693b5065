package report

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// maxHeadlines bounds how many headline metrics get a figure per knob —
// experiments recording many explicit metrics would otherwise multiply
// the figure count without adding narrative.
const maxHeadlines = 4

// sensitivity carries one generation's knob-sweep layer: every selected
// experiment's knob grids, bound after aggregation to the views of the
// scenarios they name, and the verdict stability derived from them.
type sensitivity struct {
	gridPoints int
	// knobs lists every swept knob name, sorted — the manifest's grid
	// index.
	knobs []string
	// scenarios counts the distinct grid scenarios run.
	scenarios int
	// exps maps experiment id -> its share of the layer.
	exps map[string]*expSens
}

// expSens is one experiment's share of the sensitivity layer: its knob
// grids and the verdict-stability summary bind computes from them.
type expSens struct {
	grids []knobGrid // sorted by knob name
	// points counts grid points with at least one completed run.
	points int
	// flips maps check name -> knob=value labels whose majority vote
	// differs from the baseline, in knob-then-value order.
	flips map[string][]string
	// fragile lists knob names with at least one flip, sorted.
	fragile []string
}

// knobGrid is one experiment's grid over one knob.
type knobGrid struct {
	knob string
	spec experiments.KnobSpec
	// base is the baseline's position on the knob's axis: the knob's pin,
	// else its spec default.
	base float64
	// companions are the knob's Requires that the scenario does not pin:
	// what every grid point changes besides the swept value.
	companions map[string]float64
	points     []gridPoint // ascending by value
}

// gridPoint is one swept value and the scenario it names. Points of
// different knobs can name the same scenario; it runs once and they
// share its view.
type gridPoint struct {
	value float64
	key   string // harness.ScenarioKey
	view  harness.GroupView
}

func (es *expSens) fragileLabel() string {
	switch {
	case len(es.grids) == 0:
		return "—"
	case es.points == 0:
		return "ERROR"
	case len(es.fragile) == 0:
		return "stable"
	default:
		return "fragile (" + strings.Join(es.fragile, ", ") + ")"
	}
}

// buildSensitivity resolves the default KnobSpec grids at the generation's
// scale (experiments.SensitivityGrids) for the selected experiments; knobs
// not owned by a selected experiment are dropped. Each grid point's
// assignment is the knob's Requires companions, overridden by the
// scenario's pins that apply to the experiment, overridden by the point's
// value. Every distinct scenario expands into jobs once, through the
// sweep of its assignment: experiments in page order, knobs sorted,
// values ascending and seeds innermost.
func buildSensitivity(exps []core.Experiment, opts Options) (*sensitivity, []harness.Job) {
	grids := experiments.SensitivityGrids(opts.GridPoints, opts.Scale) // Canonical resolved the count
	specs := experiments.KnobSpecs()
	names := slices.Sorted(maps.Keys(grids))
	s := &sensitivity{
		gridPoints: opts.GridPoints,
		knobs:      make([]string, 0, len(names)),
		exps:       make(map[string]*expSens, len(exps)),
	}
	swept := make(map[string]bool, len(names))
	expanded := make(map[string]bool)
	var jobs []harness.Job
	for _, e := range exps {
		es := &expSens{}
		s.exps[e.ID()] = es
		for _, name := range names {
			if !harness.KnobAppliesTo(name, e.ID()) {
				continue
			}
			swept[name] = true
			spec := specs[name]
			base, pinned := opts.Params[name]
			if !pinned {
				base = spec.Default
			}
			g := knobGrid{knob: name, spec: spec, base: base, companions: maps.Clone(spec.Requires)}
			assign := make(map[string]float64)
			maps.Copy(assign, spec.Requires)
			for pin, v := range opts.Params {
				delete(g.companions, pin) // a pinned companion is no change from the baseline
				if harness.KnobAppliesTo(pin, e.ID()) {
					assign[pin] = v
				}
			}
			for _, v := range grids[name] {
				point := opts
				point.IDs, point.Params = []string{e.ID()}, maps.Clone(assign)
				point.Params[name] = v
				key := harness.ScenarioKey(e.ID(), opts.Scale, point.Params)
				g.points = append(g.points, gridPoint{value: v, key: key})
				if !expanded[key] {
					expanded[key] = true
					jobs = append(jobs, point.sweep().Jobs()...)
				}
			}
			es.grids = append(es.grids, g)
		}
	}
	for _, name := range names {
		if swept[name] {
			s.knobs = append(s.knobs, name)
		}
	}
	return s, jobs
}

// bind completes the layer once every scenario has aggregated, before any
// page renders: each grid point gets its scenario's view, scenarios
// counts the distinct grid scenarios, and every experiment's verdict
// stability is computed against its baseline (baselines[i] is exps[i]'s
// view).
func (s *sensitivity) bind(exps []core.Experiment, baselines, views []harness.GroupView) {
	byKey := make(map[string]harness.GroupView, len(views))
	for _, v := range views {
		byKey[v.Key()] = v
	}
	s.scenarios = len(views)
	for i, e := range exps {
		es := s.exps[e.ID()]
		es.flips = make(map[string][]string)
		for _, g := range es.grids {
			for j := range g.points {
				g.points[j].view = byKey[g.points[j].key]
				if g.points[j].view.Verdict() != "ERROR" {
					es.points++
				}
			}
			flipped := false
			for _, bc := range baselines[i].Checks {
				for _, p := range g.points {
					if p.view.Verdict() == "ERROR" {
						continue
					}
					if c, ok := checkAgg(p.view, bc.Name); ok && c.Verdict != bc.Verdict {
						es.flips[bc.Name] = append(es.flips[bc.Name], g.knob+"="+fmtKnobValue(p.value))
						flipped = true
					}
				}
			}
			if flipped {
				es.fragile = append(es.fragile, g.knob)
			}
		}
	}
}

// fmtKnobValue renders a grid value exactly as harness.ParamLabel does,
// so table rows and flip labels match the scenario labels in exports.
func fmtKnobValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sensHeadlines picks the metrics that get a metric-vs-knob figure: the
// experiment's explicit full-precision metrics (core.Result.AddMetric),
// capped at maxHeadlines. explicit is false when the experiment records
// none — the caller then selects a knob-responsive table-derived metric
// per knob instead.
func sensHeadlines(baseline harness.GroupView) (names []string, explicit bool) {
	if baseline.Representative != nil {
		seen := make(map[string]bool)
		for _, m := range baseline.Representative.Metrics {
			if len(names) >= maxHeadlines {
				break
			}
			if seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			names = append(names, m.Name)
		}
	}
	if len(names) > 0 {
		return names, true
	}
	if m, ok := baseline.Headline(); ok {
		return []string{m.Name}, false
	}
	return nil, false
}

// knobResponsiveMetric picks the table-derived metric to plot against one
// knob: the first baseline metric (in aggregation order) that a grid
// view carries with a mean differing from the baseline's or varying
// across the grid — cross-seed variance says nothing about knob
// response, so a flat-but-present metric must not shadow the one the
// knob actually moves. ok is false when no baseline metric responds
// (e.g. the metric names themselves embed the swept knob's value).
func knobResponsiveMetric(baseline harness.GroupView, views []harness.GroupView) (string, bool) {
	for _, bm := range baseline.Metrics {
		responds := false
		for _, v := range views {
			m, ok := metricAgg(v, bm.Name)
			if !ok {
				continue
			}
			if m.Mean != bm.Mean {
				responds = true
				break
			}
		}
		if responds {
			return bm.Name, true
		}
	}
	// Nothing responds: a present-but-flat metric still makes an honest
	// (insensitive) figure, so fall back to the first one a grid view
	// carries at all.
	for _, bm := range baseline.Metrics {
		for _, v := range views {
			if _, ok := metricAgg(v, bm.Name); ok {
				return bm.Name, true
			}
		}
	}
	return "", false
}

// metricAgg finds one named aggregated metric in a group view.
func metricAgg(v harness.GroupView, name string) (harness.MetricAgg, bool) {
	for _, m := range v.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return harness.MetricAgg{}, false
}

// checkAgg finds one named check vote in a group view.
func checkAgg(v harness.GroupView, name string) (harness.CheckAgg, bool) {
	for _, c := range v.Checks {
		if c.Name == name {
			return c, true
		}
	}
	return harness.CheckAgg{}, false
}

// renderSensitivitySection renders one experiment's sensitivity layer:
// per-knob metric-vs-knob figures with ±95% CI bands, per-knob verdict
// tables, and the experiment's verdict-stability table, from the grids
// and stability bind computed.
func renderSensitivitySection(e core.Experiment, baseline harness.GroupView, sens *sensitivity, opts Options) (string, []File) {
	es := sens.exps[e.ID()]
	if len(es.grids) == 0 {
		return "", nil
	}

	var b strings.Builder
	var figures []File
	b.WriteString("## Sensitivity\n\n")
	fmt.Fprintf(&b, "Each registered knob swept over up to %d grid values (floor → default → stretch; see DESIGN.md) × seeds {%s} at scale %.4g. ",
		sens.gridPoints, opts.seedsLabel(), opts.Scale)
	b.WriteString("Figures plot each headline metric's cross-seed mean with a shaded ±95% CI band; the baseline (default) point reuses the replications above. The stability table lists the knob values that flip a check's majority vote.\n\n")

	headlines, explicitHeadlines := sensHeadlines(baseline)
	for _, g := range es.grids {
		fmt.Fprintf(&b, "### `%s`\n\n", g.knob)
		fmt.Fprintf(&b, "%s\n\n", mdCell(g.spec.Desc))
		if len(g.companions) > 0 {
			b.WriteString("Every grid point of this knob also sets " + mdCell(harness.ParamLabel(g.companions)) + "; its verdicts are compared against the unmodified baseline.\n\n")
		}

		// Figures: one per headline metric, points in ascending knob order,
		// baseline injected at its value unless the grid covers it.
		// Experiments without explicit metrics plot the table-derived
		// metric this knob actually moves (cross-seed variance says
		// nothing about knob response). A metric no grid point carries
		// (table-derived names can embed the swept knob's value, e.g.
		// E08's "(6s propagation)" table title) would render a misleading
		// baseline-only plot — emit a note instead; the verdict table
		// below still covers the knob.
		knobMetrics := headlines
		if !explicitHeadlines {
			gridViews := make([]harness.GroupView, len(g.points))
			for i, p := range g.points {
				gridViews[i] = p.view
			}
			if name, ok := knobResponsiveMetric(baseline, gridViews); ok {
				knobMetrics = []string{name}
			}
		}
		covered := slices.ContainsFunc(g.points, func(p gridPoint) bool { return p.value == g.base })
		for mi, metric := range knobMetrics {
			fig := &sensFigure{metric: metric, knob: g.knob}
			gridPts, votedPts := 0, 0
			for _, p := range g.points {
				if p.view.Verdict() == "ERROR" {
					continue
				}
				votedPts++
				if m, ok := metricAgg(p.view, metric); ok {
					fig.add(p.value, m)
					gridPts++
				}
			}
			if gridPts == 0 {
				if votedPts == 0 {
					fmt.Fprintf(&b, "_No figure: every grid replication of this knob errored; see the verdict table below._\n\n")
				} else {
					fmt.Fprintf(&b, "_No `%s` series across this knob's grid — the metric's name varies with the knob value; see the verdict table below._\n\n", mdCell(metric))
				}
				continue
			}
			if !covered {
				if m, ok := metricAgg(baseline, metric); ok {
					fig.addBaseline(g.base, m)
				}
			}
			path := fmt.Sprintf("figures/%s-sens-%s-%d.svg", e.ID(), g.knob, mi+1)
			figures = append(figures, File{Path: path, Data: []byte(fig.svg())})
			fmt.Fprintf(&b, "![%s](../%s)\n\n", mdCell(metric+" vs "+g.knob), path)
		}

		// Per-knob verdict table: every grid value plus the baseline row,
		// ascending by value (baseline after a same-valued grid row).
		fmt.Fprintf(&b, "| `%s` | Checks (majority-pass) | Verdict |\n|---|---|---|\n", g.knob)
		baselineRow := false
		for _, p := range g.points {
			if !baselineRow && p.value > g.base {
				b.WriteString(verdictCells(fmtKnobValue(g.base)+" (baseline)", baseline.Group) + "\n")
				baselineRow = true
			}
			b.WriteString(verdictCells(fmtKnobValue(p.value), p.view.Group) + "\n")
		}
		if !baselineRow {
			b.WriteString(verdictCells(fmtKnobValue(g.base)+" (baseline)", baseline.Group) + "\n")
		}
		b.WriteString("\n")
	}

	// The experiment-level stability table: every baseline check with the
	// knob values that flip its majority vote.
	b.WriteString("### Verdict stability\n\n")
	if len(baseline.Checks) == 0 {
		b.WriteString("_No baseline checks to compare against._\n\n")
		return b.String(), figures
	}
	totalFlips := 0
	b.WriteString("| Check | Baseline | Flips at |\n|---|---|---|\n")
	for _, bc := range baseline.Checks {
		vote := "FAIL"
		if bc.Verdict {
			vote = "PASS"
		}
		at := "—"
		if fl := es.flips[bc.Name]; len(fl) > 0 {
			at = strings.Join(fl, ", ")
			totalFlips += len(fl)
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", mdCell(bc.Name), vote, mdCell(at))
	}
	switch {
	case es.points == 0:
		// Matches the matrix's ERROR cell: zero completed grid runs is
		// absence of evidence, not stability.
		b.WriteString("\n**Stability: no completed grid runs** — every swept scenario errored.\n\n")
	case totalFlips == 0:
		fmt.Fprintf(&b, "\n**Stability: stable** — every check keeps its baseline majority vote across all %d completed grid points.\n\n", es.points)
	default:
		fmt.Fprintf(&b, "\n**Stability: fragile** — %d flip(s) across %s.\n\n",
			totalFlips, strings.Join(es.fragile, ", "))
	}
	return b.String(), figures
}

// verdictCells renders one row of a knob's verdict table: the scenario's
// majority-pass tally and verdict, or no tally when no replication
// completed.
func verdictCells(label string, g harness.Group) string {
	if g.Verdict() == "ERROR" {
		return fmt.Sprintf("| %s | — | ERROR |", label)
	}
	return fmt.Sprintf("| %s | %d/%d | %s |", label, g.Passes(), len(g.Checks), g.Verdict())
}

// sensFigure accumulates one metric-vs-knob figure: the grid means with
// their ±95% CI envelope, plus the baseline (default) marker point.
type sensFigure struct {
	metric string
	knob   string
	points []sensPoint
}

type sensPoint struct {
	x        float64
	m        harness.MetricAgg
	baseline bool
}

func (f *sensFigure) add(x float64, m harness.MetricAgg) {
	f.points = append(f.points, sensPoint{x: x, m: m})
}

func (f *sensFigure) addBaseline(x float64, m harness.MetricAgg) {
	f.points = append(f.points, sensPoint{x: x, m: m, baseline: true})
}

// svg renders the figure: the "mean" polyline over every point (grid and
// baseline alike, ascending x) wrapped in its mean±CI band, with the
// baseline point repeated as its own marker series.
func (f *sensFigure) svg() string {
	sort.SliceStable(f.points, func(i, j int) bool { return f.points[i].x < f.points[j].x })
	fig := &metrics.Figure{
		Title:  f.metric + " vs " + f.knob,
		XLabel: f.knob,
		YLabel: f.metric,
	}
	for _, p := range f.points {
		fig.Add("mean", p.x, p.m.Mean)
		fig.AddBand("mean", p.x, p.m.Mean-p.m.CI95, p.m.Mean+p.m.CI95)
	}
	for _, p := range f.points {
		if p.baseline {
			fig.Add("default", p.x, p.m.Mean)
		}
	}
	return fig.SVG(figureW, figureH)
}
