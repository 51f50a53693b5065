package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// designTables renders the two DESIGN.md tables that mirror code — the
// experiment index (from the registry and core.SectionOf) and the sweep
// knob table (from KnobSpecs) — keyed by the name in their
// <!-- generated:NAME --> marker.
func designTables(t *testing.T) map[string]string {
	t.Helper()
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	var index strings.Builder
	index.WriteString("| ID | Title | Section |\n|----|-------|---------|\n")
	for _, e := range reg.All() {
		fmt.Fprintf(&index, "| %s | %s | %s |\n", e.ID(), e.Title(), core.SectionOf(e))
	}

	var knobs strings.Builder
	knobs.WriteString("| Knob | Experiment | Default | Range | Default grid | Meaning |\n")
	knobs.WriteString("|------|------------|---------|-------|--------------|---------|\n")
	specs := KnobSpecs()
	for _, name := range sortedKnobNames(t) {
		s := specs[name]
		owner := core.KnobOwner(name)
		rng := fmt.Sprintf("%g–%g", s.Min, s.Max)
		if s.Integer {
			rng += ", integer"
		}
		if s.Scaled {
			rng += ", ×scale"
		}
		var grid []string
		for _, v := range s.Grid(DefaultGridPoints, 1) {
			grid = append(grid, fmt.Sprintf("%g", v))
		}
		cell := strings.Join(grid, ", ")
		if len(s.Requires) > 0 {
			cell += " (with " + harness.ParamLabel(s.Requires) + ")"
		}
		fmt.Fprintf(&knobs, "| `%s` | %s | %g | %s | %s | %s |\n",
			name, owner, s.Default, rng, cell, strings.TrimPrefix(s.Desc, owner+": "))
	}
	return map[string]string{"experiment-index": index.String(), "knob-table": knobs.String()}
}

// TestDesignTablesCurrent fails when DESIGN.md's generated blocks differ
// from what the registry and KnobSpecs render; -update rewrites them in
// place:
//
//	go test ./internal/experiments -run DesignTables -update
func TestDesignTablesCurrent(t *testing.T) {
	path := filepath.Join("..", "..", "DESIGN.md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(data)
	for name, want := range designTables(t) {
		begin := "<!-- generated:" + name + " -->\n"
		end := "<!-- /generated:" + name + " -->"
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Fatalf("DESIGN.md lacks the %s…%s markers", strings.TrimSpace(begin), end)
		}
		i += len(begin)
		if doc[i:j] == want {
			continue
		}
		if !*updateGolden {
			t.Errorf("DESIGN.md block %q is stale; run: go test ./internal/experiments -run DesignTables -update", name)
			continue
		}
		doc = doc[:i] + want + doc[j:]
	}
	if *updateGolden && doc != string(data) {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatalf("rewrite DESIGN.md: %v", err)
		}
	}
}
