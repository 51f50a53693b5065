package experiments

import (
	"regexp"
	"testing"

	"repro/internal/core"
)

// sectionTag is the grammar report's sectionKey parses: a roman section,
// an optional lettered subsection and an optional numbered problem.
var sectionTag = regexp.MustCompile(`^§[IVX]+(-[A-Z])?( P[0-9]+)?$`)

// TestSections pins the stable section metadata the reproduction report
// groups claims by: every claim leads with a tag core.SectionOf finds and
// the report can order.
func TestSections(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	for _, e := range reg.All() {
		if tag := core.SectionOf(e); !sectionTag.MatchString(tag) {
			t.Errorf("%s: section tag %q does not match %s (claim %q)", e.ID(), tag, sectionTag, e.Claim())
		}
	}
}
