package harness

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// JSON renders the report as indented JSON. Field order is fixed by the
// struct definitions and group/metric order by the job list, so equal
// sweeps encode byte-identically regardless of worker count.
func (rep *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// CSV renders the report as one long-form CSV: a row per aggregated
// metric (kind=metric), per shape-check vote (kind=check), and per run
// error (kind=error), carrying the scenario key columns so the file
// loads directly into analysis tools and errored runs stay visible.
func (rep *Report) CSV() string {
	t := metrics.NewTable("",
		"experiment", "scale", "params", "replications", "kind", "name",
		"n", "mean", "stddev", "ci95", "min", "max", "passes", "pass_rate", "verdict")
	// CSV is the machine-readable artifact: render losslessly (unlike
	// the %.6g human text) so small cross-seed spread survives analysis.
	for _, g := range rep.Groups {
		scale := csvFloat(g.Scale)
		for _, e := range g.Errors {
			t.AddRow(g.ExperimentID, scale, g.Params,
				fmt.Sprint(g.Replications), "error", e,
				"", "", "", "", "", "", "", "", "")
		}
		for _, m := range g.Metrics {
			t.AddRow(g.ExperimentID, scale, g.Params,
				fmt.Sprint(g.Replications), "metric", m.Name,
				fmt.Sprint(m.N), csvFloat(m.Mean), csvFloat(m.Std),
				csvFloat(m.CI95), csvFloat(m.Min), csvFloat(m.Max),
				"", "", "")
		}
		for _, c := range g.Checks {
			t.AddRow(g.ExperimentID, scale, g.Params,
				fmt.Sprint(g.Replications), "check", c.Name,
				fmt.Sprint(c.N), "", "", "", "", "",
				fmt.Sprint(c.Passes), csvFloat(c.PassRate), fmt.Sprint(c.Verdict))
		}
	}
	return t.CSV()
}

// csvFloat renders a float losslessly and canonically for CSV export.
func csvFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Drift is the soak drift document `decentsim rep -drift` writes and
// `decentsim report -diff` reads back: the headline metric's cross-seed
// bounds per aggregate group, plus one host-resource row per completed run
// (wall time and live heap — machine facts, tracked so the soak surfaces
// runtime and memory drift beside metric drift). Field order and tags are
// the file format; Drift and Runs encode as [] when empty.
type Drift struct {
	Seeds int           `json:"seeds"`
	Drift []DriftMetric `json:"drift"`
	Runs  []DriftRun    `json:"runs"`
}

// DriftMetric is one group's headline metric bounds.
type DriftMetric struct {
	Experiment   string  `json:"experiment"`
	Scale        float64 `json:"scale"`
	Params       string  `json:"params,omitempty"`
	Replications int     `json:"replications"`
	Metric       string  `json:"metric"`
	N            int     `json:"n"`
	Mean         float64 `json:"mean"`
	Std          float64 `json:"stddev"`
	CI95         float64 `json:"ci95"`
	Min          float64 `json:"min"`
	Max          float64 `json:"max"`
}

// DriftRun is one completed run's host measurements.
type DriftRun struct {
	Experiment    string  `json:"experiment"`
	Seed          int64   `json:"seed"`
	Scale         float64 `json:"scale"`
	WallNanos     int64   `json:"wall_ns"`
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
}

// NewDrift builds the drift document of a replication: the headline metric
// (Group.Headline) of every group of rep that has one, and a run row per
// error-free result, whose wall time is the job's Elapsed and whose live
// heap is its host sample's.
func NewDrift(rep *Report, seeds int, results []JobResult) *Drift {
	d := &Drift{Seeds: seeds, Drift: []DriftMetric{}, Runs: []DriftRun{}}
	for _, jr := range results {
		if jr.Err != nil {
			continue
		}
		d.Runs = append(d.Runs, DriftRun{
			Experiment:    strings.ToUpper(jr.Job.ExperimentID),
			Seed:          jr.Job.Config.Seed,
			Scale:         jr.Job.Config.Scale,
			WallNanos:     int64(jr.Elapsed),
			HeapLiveBytes: jr.Host.HeapLiveBytes,
		})
	}
	for _, g := range rep.Groups {
		m, ok := g.Headline()
		if !ok {
			continue
		}
		d.Drift = append(d.Drift, DriftMetric{
			Experiment:   g.ExperimentID,
			Scale:        g.Scale,
			Params:       g.Params,
			Replications: g.Replications,
			Metric:       m.Name,
			N:            m.N,
			Mean:         m.Mean,
			Std:          m.Std,
			CI95:         m.CI95,
			Min:          m.Min,
			Max:          m.Max,
		})
	}
	return d
}

// String renders the report as human-readable text: one block per
// scenario with its replication count, metric summaries and check votes.
func (rep *Report) String() string {
	var b strings.Builder
	for i, g := range rep.Groups {
		if i > 0 {
			b.WriteByte('\n')
		}
		head := fmt.Sprintf("=== %s scale=%s", g.ExperimentID, formatFloat(g.Scale))
		if g.Params != "" {
			head += " " + g.Params
		}
		fmt.Fprintf(&b, "%s (%d replications) ===\n", head, g.Replications)
		if g.Title != "" {
			fmt.Fprintf(&b, "%s\n", g.Title)
		}
		for _, e := range g.Errors {
			fmt.Fprintf(&b, "ERROR %s\n", e)
		}
		t := metrics.NewTable("", "metric", "n", "mean", "stddev", "ci95", "min", "max")
		for _, m := range g.Metrics {
			t.AddRow(m.Name, fmt.Sprint(m.N), formatFloat(m.Mean),
				formatFloat(m.Std), formatFloat(m.CI95),
				formatFloat(m.Min), formatFloat(m.Max))
		}
		if len(g.Metrics) > 0 {
			b.WriteString(t.String())
		}
		for _, c := range g.Checks {
			mark := "PASS"
			if !c.Verdict {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "[%s] %s: %d/%d seeds\n", mark, c.Name, c.Passes, c.N)
		}
		// Votes only count runs that completed; say so when some errored.
		voted := g.Replications - len(g.Errors)
		if len(g.Errors) > 0 {
			fmt.Fprintf(&b, "verdict: %s (majority vote over %d of %d seeds; %d errored)\n",
				g.Verdict(), voted, g.Replications, len(g.Errors))
		} else {
			fmt.Fprintf(&b, "verdict: %s (majority vote over %d seeds)\n", g.Verdict(), voted)
		}
	}
	return b.String()
}

// formatFloat renders a float compactly for human-readable text output.
func formatFloat(v float64) string {
	return fmt.Sprintf("%.6g", v)
}
