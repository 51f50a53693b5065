package report

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The resources layer attaches one obs.Collector to every baseline run and
// renders a per-experiment Resources appendix from the representative
// replication. Everything on the pages is sim-derived (event counts,
// virtual time, transport counters, latency quantiles) and therefore part
// of the byte-determinism contract; host-side measurements (wall time,
// heap) are machine facts and are quarantined in resources/host.json,
// which the manifest indexes as volatile — present, but never hashed.

// hostFile is the tree path of the volatile host-measurement file.
const hostFile = "resources/host.json"

// resourcesLayer carries the per-run collectors and host samples gathered
// when Options.Resources is set.
type resourcesLayer struct {
	// collectors maps resKey(experiment, seed) to the collector attached
	// to that baseline run.
	collectors map[string]*obs.Collector
	hosts      []hostEntry
}

// hostEntry is one run's host-side measurements in resources/host.json.
type hostEntry struct {
	Experiment    string  `json:"experiment"`
	Seed          int64   `json:"seed"`
	Scale         float64 `json:"scale"`
	WallNanos     int64   `json:"wall_ns"`
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	Allocs        uint64  `json:"allocs"`
	GCCycles      uint64  `json:"gc_cycles"`
}

func resKey(experimentID string, seed int64) string {
	return fmt.Sprintf("%s|%d", strings.ToUpper(experimentID), seed)
}

// attach gives every baseline job its own collector. One collector per
// run keeps workers from sharing counters, which is what makes the
// rendered appendix independent of the worker count.
func (r *resourcesLayer) attach(jobs []harness.Job) {
	for i := range jobs {
		col := obs.NewCollector()
		jobs[i].Config.Obs = col
		r.collectors[resKey(jobs[i].ExperimentID, jobs[i].Config.Seed)] = col
	}
}

// record captures the host samples of the completed baseline runs.
func (r *resourcesLayer) record(results []harness.JobResult) {
	for _, jr := range results {
		e := hostEntry{
			Experiment: strings.ToUpper(jr.Job.ExperimentID),
			Seed:       jr.Job.Config.Seed,
			Scale:      jr.Job.Config.Scale,
			WallNanos:  int64(jr.Elapsed),
		}
		if jr.Host != nil {
			e.WallNanos = jr.Host.WallNanos
			e.HeapLiveBytes = jr.Host.HeapLiveBytes
			e.AllocBytes = jr.Host.AllocBytes
			e.Allocs = jr.Host.Allocs
			e.GCCycles = jr.Host.GCCycles
		}
		r.hosts = append(r.hosts, e)
	}
	sort.Slice(r.hosts, func(i, j int) bool {
		if r.hosts[i].Experiment != r.hosts[j].Experiment {
			return r.hosts[i].Experiment < r.hosts[j].Experiment
		}
		return r.hosts[i].Seed < r.hosts[j].Seed
	})
}

// hostJSON renders resources/host.json.
func (r *resourcesLayer) hostJSON() []byte {
	doc := struct {
		Note string      `json:"note"`
		Runs []hostEntry `json:"runs"`
	}{
		Note: "host-side measurements; machine-dependent, excluded from manifest hashing",
		Runs: r.hosts,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// hostEntry has no unmarshalable fields; this cannot fail.
		panic(err)
	}
	return append(enc, '\n')
}

// renderResourcesSection builds the Resources appendix of one experiment
// page from the representative replication's collector, plus any latency
// CDF figures. Returns "" when the experiment had no completed runs.
func renderResourcesSection(e core.Experiment, v *harness.GroupView, res *resourcesLayer) (string, []File) {
	var b strings.Builder
	b.WriteString("## Resources\n\n")
	if v == nil || v.Representative == nil {
		b.WriteString("_No completed runs; no telemetry was recorded._\n\n")
		return b.String(), nil
	}
	col := res.collectors[resKey(e.ID(), v.RepresentativeSeed)]
	if col == nil {
		b.WriteString("_No collector was attached to the representative run._\n\n")
		return b.String(), nil
	}
	snap := col.Snapshot()
	fmt.Fprintf(&b, "Run telemetry from the representative replication (seed %d). Everything below is sim-derived and byte-deterministic; host-side wall time and heap samples for all seeds live in [%s](../%s), which is excluded from manifest hashing.\n\n",
		v.RepresentativeSeed, hostFile, hostFile)

	b.WriteString("| Kernel | Value |\n|---|---|\n")
	fmt.Fprintf(&b, "| events fired | %d |\n", snap.Sim.Fired)
	fmt.Fprintf(&b, "| peak pending events | %d |\n", snap.Sim.MaxPending)
	fmt.Fprintf(&b, "| virtual time | %s |\n\n", time.Duration(snap.Sim.VirtualNano))

	if len(snap.Counters) > 0 {
		b.WriteString("### Counters\n\n")
		b.WriteString("| Counter | Total | Lanes (nodes × region) |\n|---|---|---|\n")
		for _, c := range snap.Counters {
			fmt.Fprintf(&b, "| %s | %d | %s |\n", mdCell(c.Name), c.Total, mdCell(laneCell(c.Lanes)))
		}
		b.WriteString("\n")
	}

	var figures []File
	if len(snap.Hists) > 0 {
		b.WriteString("### Histograms\n\n")
		b.WriteString("| Histogram | Count | Mean | Min | p50 | p90 | p99 | Max |\n|---|---|---|---|---|---|---|---|\n")
		for _, h := range snap.Hists {
			mean := int64(0)
			if h.Count > 0 {
				mean = h.Sum / int64(h.Count)
			}
			fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s | %s | %s |\n",
				mdCell(h.Name), h.Count, histVal(h.Name, mean), histVal(h.Name, h.Min),
				histVal(h.Name, h.P50), histVal(h.Name, h.P90), histVal(h.Name, h.P99),
				histVal(h.Name, h.Max))
		}
		b.WriteString("\n")
		for i, h := range col.Histograms() {
			if h.Count() == 0 {
				continue
			}
			path := fmt.Sprintf("figures/%s-res-%d.svg", e.ID(), i+1)
			figures = append(figures, File{
				Path: path,
				Data: []byte(histCDF(h).SVG(figureW, figureH)),
			})
			fmt.Fprintf(&b, "![%s CDF](../%s)\n\n", mdCell(h.Name()), path)
		}
	}
	if len(snap.Counters) == 0 && len(snap.Hists) == 0 {
		b.WriteString("_This experiment drives no instrumented subsystem; only kernel statistics were recorded._\n\n")
	}
	return b.String(), figures
}

// laneCell renders a counter's lane breakdown compactly: "0–3×EU: 10;
// 4–7×AS: 2", or "—" when the counter never recorded a located value.
func laneCell(lanes []obs.CounterLane) string {
	if len(lanes) == 0 {
		return "—"
	}
	parts := make([]string, len(lanes))
	for i, l := range lanes {
		parts[i] = fmt.Sprintf("%s×%s: %d", l.Nodes, l.Region, l.Value)
	}
	return strings.Join(parts, "; ")
}

// histVal formats a histogram value, rendering *_ns instruments as
// durations so latency quantiles read naturally.
func histVal(name string, v int64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(v).String()
	}
	return fmt.Sprint(v)
}

// histCDF builds a cumulative-distribution figure from a histogram's
// interpolated quantiles. The x axis is milliseconds for *_ns instruments,
// raw values otherwise.
func histCDF(h *obs.Histogram) *metrics.Figure {
	nanos := strings.HasSuffix(h.Name(), "_ns")
	xlabel := "value"
	if nanos {
		xlabel = "latency (ms)"
	}
	f := &metrics.Figure{
		Title:  h.Name() + " CDF",
		XLabel: xlabel,
		YLabel: "fraction of samples ≤ x",
	}
	for i := 0; i <= 50; i++ {
		q := float64(i) / 50
		x := float64(h.Quantile(q))
		if nanos {
			x /= 1e6
		}
		f.Add(h.Name(), x, q)
	}
	return f
}
