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

// sensitivity carries one generation's knob-sweep layer: the grids that
// were run, the aggregated view of every grid scenario, and the
// per-experiment stability verdicts derived from them.
type sensitivity struct {
	gridPoints int
	// knobs maps experiment id -> its swept knob names, sorted.
	knobs map[string][]string
	// grids maps knob name -> swept values, strictly ascending
	// (experiments.SensitivityGrids).
	grids map[string][]float64
	// specs is the knob registry: each spec's default is the baseline x
	// position of an unpinned knob and its Requires are merged into every
	// grid scenario.
	specs map[string]experiments.KnobSpec
	// pins is the scenario's Options.Params, carried into every grid
	// scenario of the experiment a pin applies to.
	pins map[string]float64
	// views indexes the aggregated grid scenarios by harness.ScenarioKey.
	views map[string]harness.GroupView
	// scenarios counts the distinct grid scenarios run.
	scenarios int
	// stability accumulates per-experiment verdict stability while pages
	// render, then feeds the matrix column (pages render first).
	stability map[string]*expStability
}

// expStability is one experiment's verdict-stability summary.
type expStability struct {
	swept  int // knobs swept
	points int // grid scenarios with at least one completed run
	// flips maps check name -> knob=value labels whose majority vote
	// differs from the baseline, in knob-then-value order.
	flips map[string][]string
	// fragile lists knob names with at least one flip, sorted.
	fragile []string
}

func (st *expStability) fragileLabel() string {
	switch {
	case st == nil || st.swept == 0:
		return "—"
	case st.points == 0:
		return "ERROR"
	case len(st.fragile) == 0:
		return "stable"
	default:
		return "fragile (" + strings.Join(st.fragile, ", ") + ")"
	}
}

// buildSensitivity resolves the default KnobSpec grids at the generation's
// scale (experiments.SensitivityGrids) for the selected experiments; knobs
// not owned by a selected experiment are dropped. Each (experiment, knob)
// grid expands into jobs through the sweep of its assignment, with the
// knob's grid values crossed in: experiments in page order, knobs sorted,
// values ascending and seeds innermost, so aggregate groups come out in
// render order.
func buildSensitivity(exps []core.Experiment, opts Options) (*sensitivity, []harness.Job) {
	grids := experiments.SensitivityGrids(opts.GridPoints, opts.Scale) // Canonical resolved the count
	s := &sensitivity{
		gridPoints: opts.GridPoints,
		knobs:      make(map[string][]string, len(exps)),
		grids:      make(map[string][]float64, len(grids)),
		specs:      experiments.KnobSpecs(),
		pins:       opts.Params,
		stability:  make(map[string]*expStability, len(exps)),
	}
	names := make([]string, 0, len(grids))
	for name := range grids {
		names = append(names, name)
	}
	sort.Strings(names)
	var jobs []harness.Job
	for _, e := range exps {
		for _, name := range names {
			if !harness.KnobAppliesTo(name, e.ID()) {
				continue
			}
			s.knobs[e.ID()] = append(s.knobs[e.ID()], name)
			s.grids[name] = grids[name]
			s.scenarios += len(grids[name])
			grid := opts
			grid.IDs, grid.Params = []string{e.ID()}, s.assignment(e.ID(), name)
			sw := grid.sweep()
			sw.Params[name] = grids[name]
			jobs = append(jobs, sw.Jobs()...)
		}
	}
	return s, jobs
}

// assignment is what every grid point of one experiment's grid over knob
// sets besides the knob's grid value, which overrides it: the knob's
// Requires companions, overridden by the scenario's pins that apply to
// the experiment. Job expansion and the view lookup both read it.
func (s *sensitivity) assignment(id, knob string) map[string]float64 {
	a := make(map[string]float64)
	maps.Copy(a, s.specs[knob].Requires)
	for name, v := range s.pins {
		if harness.KnobAppliesTo(name, id) {
			a[name] = v
		}
	}
	return a
}

// view returns the aggregated group for one grid point, if it ran.
func (s *sensitivity) view(id, knob string, v float64, scale float64) (harness.GroupView, bool) {
	p := s.assignment(id, knob)
	p[knob] = v
	gv, ok := s.views[harness.ScenarioKey(id, scale, p)]
	return gv, ok
}

// sweptKnobs returns every swept knob name across all experiments,
// sorted — the manifest's grid index.
func (s *sensitivity) sweptKnobs() []string {
	names := make([]string, 0, len(s.grids))
	for name := range s.grids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
// tables, and the experiment's verdict-stability table. It records the
// experiment's stability summary on sens for the matrix column.
func renderSensitivitySection(e core.Experiment, baseline *harness.GroupView, sens *sensitivity, gen genContext) (string, []File) {
	knobs := sens.knobs[e.ID()]
	st := &expStability{swept: len(knobs), flips: make(map[string][]string)}
	sens.stability[e.ID()] = st
	if len(knobs) == 0 {
		return "", nil
	}

	var b strings.Builder
	var figures []File
	b.WriteString("## Sensitivity\n\n")
	fmt.Fprintf(&b, "Each registered knob swept over up to %d grid values (floor → default → stretch; see DESIGN.md) × seeds {%s} at scale %.4g. ",
		sens.gridPoints, gen.seedsLabel(), gen.scale)
	b.WriteString("Figures plot each headline metric's cross-seed mean with a shaded ±95% CI band; the baseline (default) point reuses the replications above. The stability table lists the knob values that flip a check's majority vote.\n\n")

	var headlines []string
	explicitHeadlines := false
	if baseline != nil {
		headlines, explicitHeadlines = sensHeadlines(*baseline)
	}

	fragile := make(map[string]bool)
	for _, knob := range knobs {
		// The baseline sits on the knob's axis at its pin, else its default.
		spec := sens.specs[knob]
		base, pinned := sens.pins[knob]
		if !pinned {
			base = spec.Default
		}
		fmt.Fprintf(&b, "### `%s`\n\n", knob)
		fmt.Fprintf(&b, "%s\n\n", mdCell(spec.Desc))
		companions := maps.Clone(spec.Requires)
		for name := range sens.pins {
			delete(companions, name) // a pinned companion is no change from the baseline
		}
		if len(companions) > 0 {
			b.WriteString("Every grid point of this knob also sets " + mdCell(harness.ParamLabel(companions)) + "; its verdicts are compared against the unmodified baseline.\n\n")
		}

		// Collect the knob's grid points that actually aggregated, in the
		// grid's ascending order.
		type gridPoint struct {
			value float64
			view  harness.GroupView
		}
		var pts []gridPoint
		for _, v := range sens.grids[knob] {
			gv, ok := sens.view(e.ID(), knob, v, gen.scale)
			if !ok {
				continue
			}
			pts = append(pts, gridPoint{value: v, view: gv})
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
		if !explicitHeadlines && baseline != nil && len(pts) > 0 {
			gridViews := make([]harness.GroupView, 0, len(pts))
			for _, p := range pts {
				gridViews = append(gridViews, p.view)
			}
			if name, ok := knobResponsiveMetric(*baseline, gridViews); ok {
				knobMetrics = []string{name}
			}
		}
		for mi, metric := range knobMetrics {
			fig := &sensFigure{metric: metric, knob: knob}
			gridPts, votedPts := 0, 0
			for _, p := range pts {
				if voted := p.view.Replications - len(p.view.Errors); voted == 0 {
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
			// A grid that covers the baseline value already plots that x.
			if baseline != nil && !slices.Contains(sens.grids[knob], base) {
				if m, ok := metricAgg(*baseline, metric); ok {
					fig.addBaseline(base, m)
				}
			}
			path := fmt.Sprintf("figures/%s-sens-%s-%d.svg", e.ID(), knob, mi+1)
			figures = append(figures, File{Path: path, Data: []byte(fig.svg())})
			fmt.Fprintf(&b, "![%s](../%s)\n\n", mdCell(metric+" vs "+knob), path)
		}

		// Per-knob verdict table: every grid value plus the baseline row,
		// ascending by value (baseline after a same-valued grid row).
		type row struct {
			value    float64
			baseline bool
			cells    string
		}
		var rows []row
		for _, p := range pts {
			if p.view.Verdict() != "ERROR" {
				st.points++
			}
			rows = append(rows, row{value: p.value, cells: verdictCells(fmtKnobValue(p.value), p.view.Group)})
		}
		if baseline != nil {
			rows = append(rows, row{value: base, baseline: true,
				cells: verdictCells(fmtKnobValue(base)+" (baseline)", baseline.Group)})
		}
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].value != rows[j].value {
				return rows[i].value < rows[j].value
			}
			return !rows[i].baseline && rows[j].baseline
		})
		if len(rows) > 0 {
			fmt.Fprintf(&b, "| `%s` | Checks (majority-pass) | Verdict |\n|---|---|---|\n", knob)
			for _, r := range rows {
				b.WriteString(r.cells + "\n")
			}
			b.WriteString("\n")
		}

		// Flip detection against the baseline votes.
		if baseline != nil {
			for _, bc := range baseline.Checks {
				for _, p := range pts {
					if p.view.Replications-len(p.view.Errors) == 0 {
						continue
					}
					if c, ok := checkAgg(p.view, bc.Name); ok && c.Verdict != bc.Verdict {
						label := knob + "=" + fmtKnobValue(p.value)
						st.flips[bc.Name] = append(st.flips[bc.Name], label)
						fragile[knob] = true
					}
				}
			}
		}
	}

	st.fragile = make([]string, 0, len(fragile))
	for knob := range fragile {
		st.fragile = append(st.fragile, knob)
	}
	sort.Strings(st.fragile)

	// The experiment-level stability table: every baseline check with the
	// knob values that flip its majority vote.
	b.WriteString("### Verdict stability\n\n")
	if baseline == nil || len(baseline.Checks) == 0 {
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
		if fl := st.flips[bc.Name]; len(fl) > 0 {
			at = strings.Join(fl, ", ")
			totalFlips += len(fl)
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", mdCell(bc.Name), vote, mdCell(at))
	}
	switch {
	case st.points == 0:
		// Matches the matrix's ERROR cell: zero completed grid runs is
		// absence of evidence, not stability.
		b.WriteString("\n**Stability: no completed grid runs** — every swept scenario errored.\n\n")
	case totalFlips == 0:
		fmt.Fprintf(&b, "\n**Stability: stable** — every check keeps its baseline majority vote across all %d completed grid points.\n\n", st.points)
	default:
		fmt.Fprintf(&b, "\n**Stability: fragile** — %d flip(s) across %s.\n\n",
			totalFlips, strings.Join(st.fragile, ", "))
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
