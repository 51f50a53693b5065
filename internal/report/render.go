package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// figureSize is the fixed raster of every report SVG; part of the
// byte-determinism contract.
const figureW, figureH = 640, 360

// renderIndex builds REPORT.md: the claim-traceability matrix grouped by
// paper section, in paper-section order, one row per experiment
// (views[i] is exps[i]'s scenario), and a summary of the reproduced
// scenarios (Tree.Reproduced). With a sensitivity layer the matrix gains a
// stability column.
func renderIndex(exps []core.Experiment, views []harness.GroupView, reproduced int, opts Options, sens *sensitivity) string {
	var b strings.Builder
	b.WriteString("# Reproduction report — Please, do not Decentralize the Internet with (Permissionless) Blockchains!\n\n")
	fmt.Fprintf(&b, "Generated by `decentsim report`: %d experiments × seeds {%s} at scale %.4g.\n",
		len(exps), opts.seedsLabel(), opts.Scale)
	b.WriteString("Verdicts are majority votes across the seeds; the headline metric carries the 95% Student-t confidence half-width. Each experiment links to a page with its full check votes, aggregated metrics, tables, and figures.\n")
	if sens != nil {
		fmt.Fprintf(&b, "Sensitivity: every registered knob swept over up to %d grid values × the same seeds (%d scenarios); a claim is *stable* when no swept knob value flips any check's majority vote, *fragile* otherwise (the flipping knobs are listed). Details and metric-vs-knob figures live on each experiment page.\n",
			sens.gridPoints, sens.scenarios)
	}
	b.WriteString("\n")

	b.WriteString("## Claim traceability matrix\n\n")
	if sens != nil {
		b.WriteString("| Paper section | Experiment | Title | Checks (majority-pass) | Headline metric (mean ± 95% CI) | Verdict | Stability |\n")
		b.WriteString("|---|---|---|---|---|---|---|\n")
	} else {
		b.WriteString("| Paper section | Experiment | Title | Checks (majority-pass) | Headline metric (mean ± 95% CI) | Verdict |\n")
		b.WriteString("|---|---|---|---|---|---|\n")
	}

	// Sections in paper order; stable, so experiments keep their input
	// (registry) order within a section.
	order := make([]int, len(exps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return sectionLess(core.SectionOf(exps[order[i]]), core.SectionOf(exps[order[j]]))
	})

	for _, i := range order {
		e, v := exps[i], views[i]
		section := core.SectionOf(e)
		if section == "" {
			section = "—"
		}
		stability := ""
		if sens != nil {
			stability = " " + mdCell(sens.exps[e.ID()].fragileLabel()) + " |"
		}
		fmt.Fprintf(&b, "| %s | [%s](experiments/%s.md) | %s | %d/%d | %s | %s |%s\n",
			mdCell(section), e.ID(), e.ID(), mdCell(e.Title()),
			v.Passes(), len(v.Checks), mdCell(headlineMetric(v)), v.Verdict(), stability)
	}

	fmt.Fprintf(&b, "\n## Summary\n\n%d of %d scenarios reproduced the paper claim's shape under majority vote.\n",
		reproduced, len(views))
	if sens != nil {
		stable, fragile, errored := 0, []string{}, []string{}
		for _, e := range exps {
			es := sens.exps[e.ID()]
			switch {
			case len(es.grids) == 0:
			case es.points == 0:
				errored = append(errored, e.ID())
			case len(es.fragile) == 0:
				stable++
			default:
				fragile = append(fragile, e.ID())
			}
		}
		fmt.Fprintf(&b, "\nSensitivity: %d of %d swept claims keep every check verdict across their knob grids", stable, stable+len(fragile)+len(errored))
		if len(fragile) > 0 {
			fmt.Fprintf(&b, "; fragile: %s", strings.Join(fragile, ", "))
		}
		if len(errored) > 0 {
			fmt.Fprintf(&b, "; sweep errored: %s", strings.Join(errored, ", "))
		}
		b.WriteString(".\n")
	}
	b.WriteString("\nArtifacts are indexed in [manifest.json](manifest.json) with SHA-256 content hashes; the whole tree is byte-deterministic for equal seed sets and scales, at any worker count.\n")
	return b.String()
}

// headlineMetric renders a group's headline metric (harness
// Group.Headline: first varying, else first) as "name: mean ± ci95", or
// "—" when the group has none.
func headlineMetric(v harness.GroupView) string {
	m, ok := v.Headline()
	if !ok {
		return "—"
	}
	return fmt.Sprintf("%s: %.6g ± %.3g", m.Name, m.Mean, m.CI95)
}

// renderExperimentPage builds experiments/<ID>.md from the experiment's
// one scenario view, plus the experiment's SVG figure files. With a
// resources or sensitivity layer the page gains that layer's section
// before the footer.
func renderExperimentPage(e core.Experiment, v harness.GroupView, opts Options, sens *sensitivity, res *resourcesLayer) (string, []File) {
	var b strings.Builder
	var figures []File
	fmt.Fprintf(&b, "# %s — %s\n\n", e.ID(), e.Title())
	if sec := core.SectionOf(e); sec != "" {
		fmt.Fprintf(&b, "**Paper section:** %s\n\n", sec)
	}
	fmt.Fprintf(&b, "**Claim:** %s\n\n", e.Claim())

	voted := v.Replications - len(v.Errors)
	verdict := v.Verdict()
	if voted == 0 {
		verdict += " (no completed runs)"
	}
	fmt.Fprintf(&b, "## Verdict: %s\n\n", verdict)
	fmt.Fprintf(&b, "%d replications (seeds %s) at scale %.4g; majority vote over %d completed run(s).\n\n",
		v.Replications, opts.seedsLabel(), v.Scale, voted)
	for _, errMsg := range v.Errors {
		fmt.Fprintf(&b, "- **run error:** %s\n", mdCell(errMsg))
	}
	if len(v.Errors) > 0 {
		b.WriteString("\n")
	}

	if len(v.Checks) > 0 {
		detail := make(map[string]string)
		if v.Representative != nil {
			for _, c := range v.Representative.Checks {
				detail[c.Name] = c.Detail
			}
		}
		fmt.Fprintf(&b, "### Shape checks\n\n")
		fmt.Fprintf(&b, "| Check | Seeds passing | Majority | Detail (seed %d) |\n|---|---|---|---|\n", v.RepresentativeSeed)
		for _, c := range v.Checks {
			mark := "FAIL"
			if c.Verdict {
				mark = "PASS"
			}
			fmt.Fprintf(&b, "| %s | %d/%d | %s | %s |\n",
				mdCell(c.Name), c.Passes, c.N, mark, mdCell(detail[c.Name]))
		}
		b.WriteString("\n")
	}

	if len(v.Metrics) > 0 {
		b.WriteString("### Aggregated metrics\n\n")
		b.WriteString("| Metric | n | mean | stddev | 95% CI | min | max |\n|---|---|---|---|---|---|---|\n")
		for _, m := range v.Metrics {
			fmt.Fprintf(&b, "| %s | %d | %.6g | %.6g | %.6g | %.6g | %.6g |\n",
				mdCell(m.Name), m.N, m.Mean, m.Std, m.CI95, m.Min, m.Max)
		}
		b.WriteString("\n")
	}

	if v.Representative != nil {
		if len(v.Representative.Tables) > 0 {
			fmt.Fprintf(&b, "### Tables (seed %d)\n\n", v.RepresentativeSeed)
			for _, t := range v.Representative.Tables {
				b.WriteString(mdTable(t))
			}
		}
		if len(v.Representative.Figures) > 0 {
			fmt.Fprintf(&b, "### Figures (seed %d)\n\n", v.RepresentativeSeed)
			for i, f := range v.Representative.Figures {
				path := fmt.Sprintf("figures/%s-%d.svg", e.ID(), i+1)
				figures = append(figures, File{
					Path: path,
					Data: []byte(f.SVG(figureW, figureH)),
				})
				title := f.Title
				if title == "" {
					title = fmt.Sprintf("%s figure %d", e.ID(), i+1)
				}
				fmt.Fprintf(&b, "![%s](../%s)\n\n", mdCell(title), path)
			}
		}
	}
	if res != nil {
		section, resFigures := renderResourcesSection(e, v, res)
		b.WriteString(section)
		figures = append(figures, resFigures...)
	}
	if sens != nil {
		section, sensFigures := renderSensitivitySection(e, v, sens, opts)
		b.WriteString(section)
		figures = append(figures, sensFigures...)
	}
	b.WriteString("---\n\n[Back to the report](../REPORT.md)\n")
	return b.String(), figures
}

// mdTable renders a metrics.Table as a GitHub-flavored markdown table
// with its title bolded above and notes italicized below.
func mdTable(t *metrics.Table) string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", mdCell(t.Title))
	}
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + mdCell(c) + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for i := range t.Columns {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			b.WriteString(" " + mdCell(cell) + " |")
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*note: %s*\n", mdCell(n))
	}
	b.WriteString("\n")
	return b.String()
}

// mdCell escapes a string for use inside a markdown table cell: pipes
// would split the cell, newlines would break the row.
func mdCell(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	s = strings.ReplaceAll(s, "\n", " ")
	return s
}

// sectionLess orders paper section tags in document order: roman major
// section, then subsection letter, then problem number. Unparseable tags
// (including "") sort last, alphabetically.
func sectionLess(a, b string) bool {
	ka, oka := sectionKey(a)
	kb, okb := sectionKey(b)
	if oka != okb {
		return oka
	}
	if !oka {
		return a < b
	}
	if ka.major != kb.major {
		return ka.major < kb.major
	}
	if ka.sub != kb.sub {
		return ka.sub < kb.sub
	}
	return ka.prob < kb.prob
}

type secKey struct {
	major int
	sub   string
	prob  int
}

// sectionKey parses tags like "§III-C P2" into (3, "C", 2). The second
// return is false when the tag does not start with § or the roman numeral
// does not parse.
func sectionKey(tag string) (secKey, bool) {
	rest, ok := strings.CutPrefix(tag, "§")
	if !ok {
		return secKey{}, false
	}
	head, tail, _ := strings.Cut(rest, " ")
	roman, sub, _ := strings.Cut(head, "-")
	major, ok := romanValue(roman)
	if !ok {
		return secKey{}, false
	}
	k := secKey{major: major, sub: sub}
	if p, ok := strings.CutPrefix(tail, "P"); ok {
		n := 0
		for _, r := range p {
			if r < '0' || r > '9' {
				n = 0
				break
			}
			n = n*10 + int(r-'0')
		}
		k.prob = n
	}
	return k, true
}

// romanValue parses an additive/subtractive roman numeral (I..XXXIX is
// plenty for paper sections).
func romanValue(s string) (int, bool) {
	vals := map[byte]int{'I': 1, 'V': 5, 'X': 10, 'L': 50, 'C': 100}
	if s == "" {
		return 0, false
	}
	total := 0
	for i := 0; i < len(s); i++ {
		v, ok := vals[s[i]]
		if !ok {
			return 0, false
		}
		if i+1 < len(s) && vals[s[i+1]] > v {
			total -= v
		} else {
			total += v
		}
	}
	return total, true
}
