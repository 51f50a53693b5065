package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/harness"
)

// diff.go is the verdict gate behind `decentsim diff`: it compares two
// sweep reports (`decentsim sweep -json`; CI's soak sweeps every claim
// over 50 seeds and compares the result with the committed
// SOAK_baseline.json) and answers which claims moved — the interesting
// question across commits, per Kwon et al., being which verdicts
// flipped, not what the report says today. Groups are matched on
// Group.Key. A group whose Group.Verdict changed fails the gate, and so
// does a group whose headline mean left the old group's [min, max].
// Rendering is deterministic: rows follow document order (new-document
// order for changes, old-document order for removals), never map
// iteration.

// ClaimChange records one scenario whose verdict flipped between the
// old and the new sweep report.
type ClaimChange struct {
	Scenario   string
	OldVerdict string
	NewVerdict string
}

// TrendBreach records one scenario whose new headline mean left the
// old report's observed [min, max] envelope.
type TrendBreach struct {
	Scenario string
	Metric   string
	OldMin   float64
	OldMax   float64
	NewMean  float64
}

// Diff is the outcome of comparing two sweep reports.
type Diff struct {
	// Flips are scenarios whose verdict changed — each one fails the gate.
	Flips []ClaimChange
	// Breaches are headlines outside the old envelope — each one fails
	// the gate.
	Breaches []TrendBreach
	// Added and Removed are scenario keys present on only one side.
	Added   []string
	Removed []string
}

// Failing reports whether the diff should fail a gate: any verdict flip
// or envelope breach. Scenario set changes are reported but never
// failing.
func (d *Diff) Failing() bool {
	return len(d.Flips) > 0 || len(d.Breaches) > 0
}

// diffSweeps compares two sweep reports group by group, matched on
// Group.Key.
func diffSweeps(old, now *harness.Report) *Diff {
	d := &Diff{}
	oldBy := make(map[string]harness.Group, len(old.Groups))
	for _, g := range old.Groups {
		oldBy[g.Key()] = g
	}
	newKeys := make(map[string]bool, len(now.Groups))
	for _, ng := range now.Groups {
		k := ng.Key()
		newKeys[k] = true
		og, ok := oldBy[k]
		if !ok {
			d.Added = append(d.Added, k)
			continue
		}
		if ov, nv := og.Verdict(), ng.Verdict(); ov != nv {
			d.Flips = append(d.Flips, ClaimChange{Scenario: k, OldVerdict: ov, NewVerdict: nv})
		}
		if b, ok := breach(k, og, ng); ok {
			d.Breaches = append(d.Breaches, b)
		}
	}
	for _, g := range old.Groups {
		if k := g.Key(); !newKeys[k] {
			d.Removed = append(d.Removed, k)
		}
	}
	return d
}

// breach compares the new group's headline mean (Group.Headline) with
// the old group's [min, max] of the same metric. A headline the old
// group does not carry has an empty envelope, so any mean breaches it.
// A group without a headline takes no part.
func breach(key string, old, now harness.Group) (TrendBreach, bool) {
	nm, ok := now.Headline()
	if !ok {
		return TrendBreach{}, false
	}
	b := TrendBreach{Scenario: key, Metric: nm.Name, OldMin: math.Inf(1), OldMax: math.Inf(-1), NewMean: nm.Mean}
	for _, om := range old.Metrics {
		if om.Name == nm.Name {
			b.OldMin, b.OldMax = om.Min, om.Max
			break
		}
	}
	return b, nm.Mean < b.OldMin || nm.Mean > b.OldMax
}

// DiffDocs compares two serialized sweep reports, old then new. Any
// other document, a report manifest among them, is refused.
func DiffDocs(oldData, newData []byte) (*Diff, error) {
	old, err := parseSweep(oldData)
	if err != nil {
		return nil, fmt.Errorf("report: diff: old document: %w", err)
	}
	now, err := parseSweep(newData)
	if err != nil {
		return nil, fmt.Errorf("report: diff: new document: %w", err)
	}
	return diffSweeps(old, now), nil
}

// parseSweep decodes a sweep report after isSweepReport has told it
// from other JSON.
func parseSweep(data []byte) (*harness.Report, error) {
	if !isSweepReport(data) {
		return nil, errors.New("not a sweep report (the output of `decentsim sweep -json`)")
	}
	var rep harness.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// isSweepReport probes the document's top-level "groups" key: an array
// in a sweep report, a count in a report manifest.
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
		fmt.Fprintf(&b, "FLIP  %s: %s -> %s\n", c.Scenario, c.OldVerdict, c.NewVerdict)
	}
	for _, t := range d.Breaches {
		fmt.Fprintf(&b, "BREACH %s: %s mean %.6g outside old envelope [%.6g, %.6g]\n",
			t.Scenario, t.Metric, t.NewMean, t.OldMin, t.OldMax)
	}
	for _, s := range d.Added {
		fmt.Fprintf(&b, "ADDED %s\n", s)
	}
	for _, s := range d.Removed {
		fmt.Fprintf(&b, "REMOVED %s\n", s)
	}
	switch {
	case d.Failing():
		fmt.Fprintf(&b, "FAIL: %d verdict flip(s), %d envelope breach(es)\n", len(d.Flips), len(d.Breaches))
	case len(d.Added)+len(d.Removed) == 0:
		b.WriteString("PASS: no changes\n")
	default:
		fmt.Fprintf(&b, "PASS: no verdict flips or breaches (%d added, %d removed)\n", len(d.Added), len(d.Removed))
	}
	return b.String()
}
