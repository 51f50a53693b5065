package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
)

// MetricAgg summarizes one scalar metric across the replications of a
// scenario. CI95 is the half-width of the 95% confidence interval for the
// mean (Student's t), 0 with fewer than two observations.
type MetricAgg struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"stddev"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// CheckAgg is the cross-replication vote on one shape check.
type CheckAgg struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	Passes   int     `json:"passes"`
	PassRate float64 `json:"pass_rate"`
	// Verdict is the majority vote: true when the check held in more
	// than half the replications.
	Verdict bool `json:"verdict"`
}

// Group aggregates all replications of one scenario — same experiment,
// scale and knob assignment, varying seed.
type Group struct {
	ExperimentID string      `json:"experiment"`
	Title        string      `json:"title,omitempty"`
	Scale        float64     `json:"scale"`
	Params       string      `json:"params,omitempty"`
	Seeds        []int64     `json:"seeds"`
	Replications int         `json:"replications"`
	Errors       []string    `json:"errors,omitempty"`
	Metrics      []MetricAgg `json:"metrics"`
	Checks       []CheckAgg  `json:"checks"`
	// Reproduced reports whether every shape check won its majority
	// vote (false when no replication produced checks).
	Reproduced bool `json:"reproduced"`
}

// Report is an aggregated sweep: one group per scenario, in job order.
type Report struct {
	Groups []Group `json:"groups"`
}

// metricAcc accumulates one metric across seeds in first-seen order.
type metricAcc struct {
	name string
	sum  metrics.Summary
}

type checkAcc struct {
	name   string
	n      int
	passes int
}

type groupAcc struct {
	group    Group
	metrics  []*metricAcc
	metricIx map[string]*metricAcc
	checks   []*checkAcc
	checkIx  map[string]*checkAcc
	// rep is the lowest-seed successful result, GroupView's representative.
	rep     *core.Result
	repSeed int64
}

// Aggregate collapses job results into a Report. Results belonging to the
// same scenario (experiment id + scale + knob assignment) are merged
// across seeds; groups and their metrics appear in first-encounter order,
// so equal inputs produce byte-identical exports regardless of how the
// jobs were scheduled.
func Aggregate(results []JobResult) *Report {
	views := AggregateView(results)
	rep := &Report{Groups: make([]Group, 0, len(views))}
	for _, v := range views {
		rep.Groups = append(rep.Groups, v.Group)
	}
	return rep
}

// AggregateView collapses job results into report-oriented group views:
// the grouping and ordering of Aggregate, with each group carrying its
// representative result for artifact rendering.
func AggregateView(results []JobResult) []GroupView {
	var order []*groupAcc
	index := make(map[string]*groupAcc)
	for _, jr := range results {
		key := ScenarioKey(jr.Job.ExperimentID, jr.Job.Config.Scale, jr.Job.Config.Params)
		acc, ok := index[key]
		if !ok {
			acc = &groupAcc{
				group: Group{
					ExperimentID: strings.ToUpper(jr.Job.ExperimentID),
					Scale:        jr.Job.Config.Scale,
					Params:       ParamLabel(jr.Job.Config.Params),
				},
				metricIx: make(map[string]*metricAcc),
				checkIx:  make(map[string]*checkAcc),
			}
			index[key] = acc
			order = append(order, acc)
		}
		acc.group.Seeds = append(acc.group.Seeds, jr.Job.Config.Seed)
		acc.group.Replications++
		if jr.Err != nil {
			acc.group.Errors = append(acc.group.Errors,
				fmt.Sprintf("seed %d: %v", jr.Job.Config.Seed, jr.Err))
			continue
		}
		if acc.group.Title == "" {
			acc.group.Title = jr.Result.Title
		}
		if acc.rep == nil || jr.Job.Config.Seed < acc.repSeed {
			acc.rep, acc.repSeed = jr.Result, jr.Job.Config.Seed
		}
		for _, mv := range resultMetrics(jr.Result) {
			m, ok := acc.metricIx[mv.name]
			if !ok {
				m = &metricAcc{name: mv.name}
				acc.metricIx[mv.name] = m
				acc.metrics = append(acc.metrics, m)
			}
			m.sum.Add(mv.value)
		}
		for _, c := range jr.Result.Checks {
			ca, ok := acc.checkIx[c.Name]
			if !ok {
				ca = &checkAcc{name: c.Name}
				acc.checkIx[c.Name] = ca
				acc.checks = append(acc.checks, ca)
			}
			ca.n++
			if c.OK {
				ca.passes++
			}
		}
	}
	views := make([]GroupView, 0, len(order))
	for _, acc := range order {
		g := acc.group
		g.Metrics = make([]MetricAgg, 0, len(acc.metrics))
		for _, m := range acc.metrics {
			g.Metrics = append(g.Metrics, MetricAgg{
				Name: m.name,
				N:    m.sum.Count(),
				Mean: m.sum.Mean(),
				Std:  m.sum.Std(),
				CI95: ci95(m.sum.Std(), m.sum.Count()),
				Min:  m.sum.Min(),
				Max:  m.sum.Max(),
			})
		}
		g.Checks = make([]CheckAgg, 0, len(acc.checks))
		g.Reproduced = len(acc.checks) > 0
		for _, c := range acc.checks {
			verdict := 2*c.passes > c.n
			if !verdict {
				g.Reproduced = false
			}
			g.Checks = append(g.Checks, CheckAgg{
				Name:     c.name,
				N:        c.n,
				Passes:   c.passes,
				PassRate: float64(c.passes) / float64(c.n),
				Verdict:  verdict,
			})
		}
		views = append(views, GroupView{Group: g, Representative: acc.rep, RepresentativeSeed: acc.repSeed})
	}
	return views
}

// Key returns the scenario identity results are merged on: experiment id
// + scale + canonical knob assignment, everything but the seed. Group
// stores exactly these canonical components, so it is the same string
// ScenarioKey renders for the jobs that formed the group, and callers can
// index aggregated output by the scenarios they submitted.
func (g Group) Key() string {
	return g.ExperimentID + "|" + strconv.FormatFloat(g.Scale, 'g', -1, 64) + "|" + g.Params
}

// ScenarioKey renders the canonical identity replications are merged on:
// experiment id + scale + knob assignment (everything but the seed). It
// equals Group.Key for the group those jobs aggregate into.
func ScenarioKey(experimentID string, scale float64, params map[string]float64) string {
	return Group{
		ExperimentID: strings.ToUpper(experimentID),
		Scale:        scale,
		Params:       ParamLabel(params),
	}.Key()
}

// Verdict is the three-way scenario outcome every surface agrees on: ERROR
// when no replication completed (an infrastructure failure, not a refuted
// claim), else REPRODUCED when every check won its majority vote, else NOT
// REPRODUCED.
func (g Group) Verdict() string {
	switch {
	case len(g.Errors) == g.Replications:
		return "ERROR"
	case g.Reproduced:
		return "REPRODUCED"
	default:
		return "NOT REPRODUCED"
	}
}

// Passes returns how many of the group's checks won their majority vote.
func (g Group) Passes() int {
	n := 0
	for _, c := range g.Checks {
		if c.Verdict {
			n++
		}
	}
	return n
}

// Headline returns the group's headline metric: the first aggregated
// metric that actually varies across seeds (explicit full-precision
// metrics sort first in the aggregation, so experiments that record one
// get it), falling back to the group's first metric when every metric is
// constant. ok is false when the group has no metrics. The choice
// depends only on the aggregation, so it is deterministic for equal
// inputs.
func (g Group) Headline() (m MetricAgg, ok bool) {
	if len(g.Metrics) == 0 {
		return MetricAgg{}, false
	}
	m = g.Metrics[0]
	for _, cand := range g.Metrics {
		if cand.Std > 0 {
			m = cand
			break
		}
	}
	return m, true
}

type metricValue struct {
	name  string
	value float64
}

// resultMetrics collects a result's scalar metrics: explicit full-
// precision metrics first (core.Result.AddMetric), then one per numeric
// table cell, named "<table> | <row key> | <column>". The first column of
// each row serves as the row key, so every experiment's output becomes
// aggregatable without per-experiment extraction code. Repeated row keys
// within a table (e.g. the same alpha at different gammas) get a
// deterministic "#2", "#3"… suffix so distinct rows never merge into one
// accumulator. Table-derived values carry the cell's rendered precision
// (typically %.4g), so cross-seed variation below 4 significant digits
// aggregates to stddev 0 — experiments should AddMetric the scalars whose
// spread matters.
func resultMetrics(r *core.Result) []metricValue {
	var out []metricValue
	for _, m := range r.Metrics {
		out = append(out, metricValue{name: m.Name, value: m.Value})
	}
	for _, t := range r.Tables {
		assigned := make(map[string]bool, len(t.Rows))
		for _, row := range t.Rows {
			if len(row) == 0 {
				continue
			}
			// Suffix until unique so a literal "a #2" row key cannot
			// collide with a generated one.
			key := row[0]
			for n := 2; assigned[key]; n++ {
				key = fmt.Sprintf("%s #%d", row[0], n)
			}
			assigned[key] = true
			for i := 1; i < len(row) && i < len(t.Columns); i++ {
				v, err := strconv.ParseFloat(strings.TrimSpace(row[i]), 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				out = append(out, metricValue{
					name:  t.Title + " | " + key + " | " + t.Columns[i],
					value: v,
				})
			}
		}
	}
	return out
}

// tCrit95 holds two-sided 95% Student's t critical values by degrees of
// freedom (index 1..30); larger df use the normal approximation.
var tCrit95 = [...]float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func ci95(std float64, n int) float64 {
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.960
	if df < len(tCrit95) {
		t = tCrit95[df]
	}
	return t * std / math.Sqrt(float64(n))
}
