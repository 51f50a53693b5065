package report

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/harness"
)

// diff.go is the verdict comparator behind `decentsim report -diff`: it
// answers "which claims moved" between two manifests — the interesting
// question across commits, per Kwon et al., being which verdicts
// flipped, not what the tree says today. The same comparator reads two
// sweep reports (the 100-seed soak's `sweep -json` output against the
// committed SOAK_baseline.json) and turns each group's headline bounds
// into a failing trend gate. Rendering is deterministic: rows follow
// document order (new-document order for changes, old-document order for
// removals), never map iteration.

// ClaimChange records one scenario whose verdict or headline metric
// moved between the old and new manifest.
type ClaimChange struct {
	Scenario   string
	Title      string
	OldVerdict string
	NewVerdict string
	// Metric carries the new manifest's headline metric name (or the old
	// one when the new claim has none); the means are the cross-seed
	// headline means on each side.
	Metric  string
	OldMean float64
	NewMean float64
	OldCI95 float64
	NewCI95 float64
}

// Flipped reports whether the scenario's verdict changed (the failing
// condition); a false value means only the headline metric drifted.
func (c ClaimChange) Flipped() bool { return c.OldVerdict != c.NewVerdict }

// TrendBreach records one soak scenario whose new headline mean left the
// old document's observed [min, max] envelope.
type TrendBreach struct {
	Scenario string
	Metric   string
	OldMin   float64
	OldMax   float64
	NewMean  float64
}

// Diff is the outcome of comparing two manifests or two sweep reports.
type Diff struct {
	// Kind is "manifest" or "sweep", matching the detected document type.
	Kind string
	// Flips are claims whose verdict changed — each one fails the gate.
	Flips []ClaimChange
	// Drifts are claims whose verdict held but whose headline metric
	// moved; informational, never failing.
	Drifts []ClaimChange
	// Added and Removed are scenario keys present on only one side.
	Added   []string
	Removed []string
	// Breaches are sweep-report headlines outside the old envelope —
	// each one fails the gate.
	Breaches []TrendBreach
}

// Failing reports whether the diff should fail a gate: any verdict flip
// (manifests) or envelope breach (sweep reports). Metric-only drift
// and scenario set changes are reported but never failing.
func (d *Diff) Failing() bool {
	return len(d.Flips) > 0 || len(d.Breaches) > 0
}

// DiffManifests compares the claims of two parsed manifests, matching
// scenarios by their canonical harness keys.
func DiffManifests(old, now *Manifest) *Diff {
	d := &Diff{Kind: "manifest"}
	oldBy := make(map[string]ManifestClaim, len(old.Claims))
	for _, c := range old.Claims {
		oldBy[c.Scenario] = c
	}
	newKeys := make(map[string]bool, len(now.Claims))
	for _, nc := range now.Claims {
		newKeys[nc.Scenario] = true
		oc, ok := oldBy[nc.Scenario]
		if !ok {
			d.Added = append(d.Added, nc.Scenario)
			continue
		}
		ch := ClaimChange{
			Scenario:   nc.Scenario,
			Title:      nc.Title,
			OldVerdict: oc.Verdict,
			NewVerdict: nc.Verdict,
			Metric:     nc.Metric,
			OldMean:    oc.Mean,
			NewMean:    nc.Mean,
			OldCI95:    oc.CI95,
			NewCI95:    nc.CI95,
		}
		if ch.Metric == "" {
			ch.Metric = oc.Metric
		}
		switch {
		case ch.Flipped():
			d.Flips = append(d.Flips, ch)
		case oc.Metric != nc.Metric || oc.Mean != nc.Mean:
			d.Drifts = append(d.Drifts, ch)
		}
	}
	for _, oc := range old.Claims {
		if !newKeys[oc.Scenario] {
			d.Removed = append(d.Removed, oc.Scenario)
		}
	}
	return d
}

// headlineKey names one group's headline bound in a sweep report.
func headlineKey(g harness.Group, m harness.MetricAgg) string {
	return fmt.Sprintf("%s|%.6g|%s|%s", g.ExperimentID, g.Scale, g.Params, m.Name)
}

// diffSweeps compares two sweep reports on each group's headline metric
// (Group.Headline): a scenario breaches when its new mean falls outside
// the old report's observed [min, max]. Groups without a headline take
// no part.
func diffSweeps(old, now *harness.Report) *Diff {
	d := &Diff{Kind: "sweep"}
	var oldKeys []string
	oldBy := make(map[string]harness.MetricAgg, len(old.Groups))
	for _, g := range old.Groups {
		if m, ok := g.Headline(); ok {
			k := headlineKey(g, m)
			oldKeys = append(oldKeys, k)
			oldBy[k] = m
		}
	}
	newKeys := make(map[string]bool, len(now.Groups))
	for _, g := range now.Groups {
		nm, ok := g.Headline()
		if !ok {
			continue
		}
		k := headlineKey(g, nm)
		newKeys[k] = true
		om, ok := oldBy[k]
		if !ok {
			d.Added = append(d.Added, k)
			continue
		}
		if nm.Mean < om.Min || nm.Mean > om.Max {
			d.Breaches = append(d.Breaches, TrendBreach{
				Scenario: k,
				Metric:   nm.Name,
				OldMin:   om.Min,
				OldMax:   om.Max,
				NewMean:  nm.Mean,
			})
		}
	}
	for _, k := range oldKeys {
		if !newKeys[k] {
			d.Removed = append(d.Removed, k)
		}
	}
	return d
}

// DiffDocs compares two serialized documents, auto-detecting their kind:
// report manifests (a "claims"/"files" object) are compared claim by
// claim, sweep reports (`decentsim sweep -json`, a top-level "groups"
// array) headline bound by headline bound. Both sides must be the same
// kind.
func DiffDocs(oldData, newData []byte) (*Diff, error) {
	oldSweep, newSweep := isSweepReport(oldData), isSweepReport(newData)
	if oldSweep != newSweep {
		return nil, fmt.Errorf("report: diff: document kinds differ (one manifest, one sweep report)")
	}
	if oldSweep {
		var or, nr harness.Report
		if err := json.Unmarshal(oldData, &or); err != nil {
			return nil, fmt.Errorf("report: diff: parse old sweep report: %w", err)
		}
		if err := json.Unmarshal(newData, &nr); err != nil {
			return nil, fmt.Errorf("report: diff: parse new sweep report: %w", err)
		}
		return diffSweeps(&or, &nr), nil
	}
	om, err := ParseManifest(oldData)
	if err != nil {
		return nil, fmt.Errorf("report: diff: old manifest: %w", err)
	}
	nm, err := ParseManifest(newData)
	if err != nil {
		return nil, fmt.Errorf("report: diff: new manifest: %w", err)
	}
	return DiffManifests(om, nm), nil
}

// isSweepReport probes the document's top-level "groups" key: an array
// in a sweep report, a count in a manifest.
func isSweepReport(data []byte) bool {
	var probe struct {
		Groups []json.RawMessage `json:"groups"`
	}
	return json.Unmarshal(data, &probe) == nil && probe.Groups != nil
}

// Render prints the diff as a deterministic human-readable summary, one
// line per change, ending with a PASS/FAIL verdict line.
func (d *Diff) Render() string {
	var b strings.Builder
	for _, c := range d.Flips {
		fmt.Fprintf(&b, "FLIP  %s: %s -> %s", c.Scenario, c.OldVerdict, c.NewVerdict)
		if c.Metric != "" {
			fmt.Fprintf(&b, " (%s %.6g -> %.6g)", c.Metric, c.OldMean, c.NewMean)
		}
		b.WriteString("\n")
	}
	for _, c := range d.Drifts {
		fmt.Fprintf(&b, "DRIFT %s: %s %.6g -> %.6g (verdict %s holds)\n",
			c.Scenario, c.Metric, c.OldMean, c.NewMean, c.NewVerdict)
	}
	for _, t := range d.Breaches {
		fmt.Fprintf(&b, "BREACH %s: mean %.6g outside old envelope [%.6g, %.6g]\n",
			t.Scenario, t.NewMean, t.OldMin, t.OldMax)
	}
	for _, s := range d.Added {
		fmt.Fprintf(&b, "ADDED %s\n", s)
	}
	for _, s := range d.Removed {
		fmt.Fprintf(&b, "REMOVED %s\n", s)
	}
	switch {
	case d.Failing() && d.Kind == "sweep":
		fmt.Fprintf(&b, "FAIL: %d scenario(s) breached the drift envelope\n", len(d.Breaches))
	case d.Failing():
		fmt.Fprintf(&b, "FAIL: %d verdict flip(s)\n", len(d.Flips))
	case len(d.Flips)+len(d.Drifts)+len(d.Breaches)+len(d.Added)+len(d.Removed) == 0:
		b.WriteString("PASS: no changes\n")
	default:
		fmt.Fprintf(&b, "PASS: no verdict flips (%d drift(s), %d added, %d removed)\n",
			len(d.Drifts), len(d.Added), len(d.Removed))
	}
	return b.String()
}
