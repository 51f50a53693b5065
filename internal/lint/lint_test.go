package lint

import (
	"reflect"
	"testing"
)

func TestPathInSet(t *testing.T) {
	set := []string{"internal/sim", "internal/overlay", "internal/obs"}
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/sim", true},
		{"internal/sim", true},
		{"repro/internal/sim/rsok", true},
		{"repro/internal/overlay/chord", true},
		{"repro/internal/obs", true},
		{"repro/internal/obsolete", false},
		{"repro/internal/simulator", false},
		{"repro/cmd/decentsim", false},
		{"repro", false},
	}
	for _, c := range cases {
		if got := pathInSet(c.path, set); got != c.want {
			t.Errorf("pathInSet(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestParseVerbs(t *testing.T) {
	type v struct {
		verb rune
		prec bool
		arg  int
	}
	cases := []struct {
		format string
		want   []v
	}{
		{"plain", nil},
		{"%d", []v{{'d', false, 0}}},
		{"%v %g", []v{{'v', false, 0}, {'g', false, 1}}},
		{"%.6g", []v{{'g', true, 0}}},
		{"%8.3f", []v{{'f', true, 0}}},
		{"100%% %s", []v{{'s', false, 0}}},
		{"%*d %v", []v{{'d', false, 1}, {'v', false, 2}}},
		{"%.*f %v", []v{{'f', true, 1}, {'v', false, 2}}},
		{"%[2]v %[1]s", []v{{'v', false, 1}, {'s', false, 0}}},
		{"%+0v", []v{{'v', false, 0}}},
		{"%", nil},
	}
	for _, c := range cases {
		got := parseVerbs(c.format)
		var flat []v
		for _, g := range got {
			flat = append(flat, v{g.verb, g.hasPrecision, g.argIndex})
		}
		if !reflect.DeepEqual(flat, c.want) {
			t.Errorf("parseVerbs(%q) = %+v, want %+v", c.format, flat, c.want)
		}
	}
}

// TestAnalyzersWellFormed pins the suite composition: three analyzers,
// unique identifier names, docs present — the properties the directive
// parser and the CI lint job rely on.
func TestAnalyzersWellFormed(t *testing.T) {
	as := Analyzers()
	if len(as) != 3 {
		t.Fatalf("want 3 analyzers, got %d", len(as))
	}
	want := map[string]bool{"nondeterm": true, "rngstream": true, "floatfmt": true}
	seen := map[string]bool{}
	for _, a := range as {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks doc or run function", a.Name)
		}
	}
}
