package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := s.Std(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Count() != 0 {
		t.Fatal("zero-value Summary must report zeros")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{50, 50.5},
		{90, 90.1},
		{100, 100},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Median = %v, want 50.5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatal("empty Sample must report zeros")
	}
}

func TestSampleFraction(t *testing.T) {
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	got := s.Fraction(func(x float64) bool { return x < 5 })
	if got != 0.5 {
		t.Fatalf("Fraction = %v, want 0.5", got)
	}
}

func TestGini(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
		tol  float64
	}{
		{"equal", []float64{1, 1, 1, 1}, 0, 1e-12},
		{"empty", nil, 0, 0},
		{"all zero", []float64{0, 0}, 0, 0},
		{"one holds all", append(make([]float64, 99), 100), 0.99, 0.001},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Gini(tt.xs); math.Abs(got-tt.want) > tt.tol {
				t.Fatalf("Gini = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestHHI(t *testing.T) {
	if got := HHI([]float64{1, 1, 1, 1}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("HHI(4 equal) = %v, want 0.25", got)
	}
	if got := HHI([]float64{1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("HHI(monopoly) = %v, want 1", got)
	}
	if got := HHI(nil); got != 0 {
		t.Fatalf("HHI(nil) = %v, want 0", got)
	}
}

func TestTopShare(t *testing.T) {
	xs := []float64{50, 30, 10, 5, 5}
	if got := TopShare(xs, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("TopShare k=1 = %v, want 0.5", got)
	}
	if got := TopShare(xs, 3); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("TopShare k=3 = %v, want 0.9", got)
	}
	if got := TopShare(xs, 100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TopShare k>n = %v, want 1", got)
	}
	if got := TopShare(nil, 2); got != 0 {
		t.Fatalf("TopShare(nil) = %v, want 0", got)
	}
}

// Property: Gini is scale-invariant and bounded by [0, 1).
func TestPropertyGini(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			scaled[i] = float64(v) * 7.5
		}
		g1, g2 := Gini(xs), Gini(scaled)
		if g1 < -1e-9 || g1 >= 1 {
			return false
		}
		return math.Abs(g1-g2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: HHI lies in [1/n, 1] for any non-trivial share vector.
func TestPropertyHHI(t *testing.T) {
	f := func(raw []uint8) bool {
		var pos int
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			if v > 0 {
				pos++
			}
		}
		h := HHI(xs)
		if pos == 0 {
			return h == 0
		}
		return h >= 1/float64(pos)-1e-9 && h <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "system", "tps")
	tab.AddRow("bitcoin", "3.7")
	tab.AddRowf("ethereum", 15.2)
	tab.AddNote("shape only")
	out := tab.String()
	for _, want := range []string{"demo", "system", "bitcoin", "15.2", "note: shape only"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("1")
	tab.AddRow("1", "2", "3")
	if len(tab.Rows[0]) != 2 {
		t.Fatalf("short row not padded: %v", tab.Rows[0])
	}
	if len(tab.Columns) != 3 {
		t.Fatalf("long row did not extend columns: %v", tab.Columns)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow(`say "hi"`, "x,y")
	csv := tab.CSV()
	if !strings.Contains(csv, `"say ""hi"""`) || !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("CSV quoting wrong:\n%s", csv)
	}
}

func TestFigure(t *testing.T) {
	var f Figure
	f.Title = "fork rate"
	f.XLabel = "interval"
	f.YLabel = "stale"
	f.Add("sim", 1, 0.5)
	f.Add("sim", 2, 0.25)
	f.Add("model", 1, 0.52)
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(f.Series))
	}
	plot := f.Render(40, 10)
	if !strings.Contains(plot, "fork rate") || !strings.Contains(plot, "sim") {
		t.Fatalf("plot missing title/legend:\n%s", plot)
	}
}

func TestFigureEmpty(t *testing.T) {
	var f Figure
	f.Title = "empty"
	if got := f.Render(40, 10); !strings.Contains(got, "no data") {
		t.Fatalf("empty figure should say 'no data', got %q", got)
	}
}

// TestSampleSingleObservation pins percentile behavior at n=1: every
// percentile, the median included, is the lone observation.
func TestSampleSingleObservation(t *testing.T) {
	var s Sample
	s.Add(42)
	for _, p := range []float64{0, 1, 50, 90, 99, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Fatalf("Percentile(%g) = %g with one observation, want 42", p, got)
		}
	}
	if s.Median() != 42 {
		t.Fatalf("Median = %g, want 42", s.Median())
	}
}

// TestGiniNegativeInputs pins the documented clamp: negative values count
// as zero, and an all-negative (hence all-zero) input yields 0.
func TestGiniNegativeInputs(t *testing.T) {
	if got, want := Gini([]float64{-1, 1}), Gini([]float64{0, 1}); got != want {
		t.Fatalf("Gini([-1,1]) = %g, want %g (negatives clamp to zero)", got, want)
	}
	if got := Gini([]float64{-3, -2, -1}); got != 0 {
		t.Fatalf("Gini(all-negative) = %g, want 0", got)
	}
	if got := Gini([]float64{-5, 10, 10}); got != Gini([]float64{0, 10, 10}) {
		t.Fatalf("Gini with a negative entry diverges from the clamped equivalent")
	}
}

// TestMeanP99 pins the nearest-rank index the consensus goldens were
// generated with: on 100..1 the 99th percentile is the 99th smallest value,
// not the largest and not an interpolation between the two.
func TestMeanP99(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100-i) * time.Millisecond
	}
	mean, p99 := MeanP99(ds)
	if mean != 50500*time.Microsecond || p99 != 99*time.Millisecond {
		t.Fatalf("MeanP99(100ms..1ms) = %v, %v, want 50.5ms, 99ms", mean, p99)
	}
	if ds[0] != 100*time.Millisecond {
		t.Fatal("MeanP99 reordered its input")
	}
	if mean, p99 := MeanP99([]time.Duration{7}); mean != 7 || p99 != 7 {
		t.Fatalf("MeanP99 of one value = %v, %v", mean, p99)
	}
	if mean, p99 := MeanP99(nil); mean != 0 || p99 != 0 {
		t.Fatalf("MeanP99(nil) = %v, %v, want zeros", mean, p99)
	}
}
