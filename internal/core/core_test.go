package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics"
)

type fakeExp struct {
	id   string
	fail bool
}

func (f *fakeExp) ID() string    { return f.id }
func (f *fakeExp) Title() string { return "fake " + f.id }
func (f *fakeExp) Claim() string { return "claim " + f.id }

func (f *fakeExp) Run(cfg Config) (*Result, error) {
	r := &Result{ID: f.id, Title: f.Title(), Claim: f.Claim()}
	t := metrics.NewTable("t", "a")
	t.AddRow("1")
	r.Tables = append(r.Tables, t)
	r.AddCheck(!f.fail, "check", "seed=%d scale=%v", cfg.Seed, cfg.Scale)
	return r, nil
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Seed != 1 || c.Scale != 1 {
		t.Fatalf("defaults = %+v, want seed=1 scale=1", c)
	}
	c = Config{Seed: 9, Scale: 0.5}.WithDefaults()
	if c.Seed != 9 || c.Scale != 0.5 {
		t.Fatalf("explicit config altered: %+v", c)
	}
}

func TestScaleInt(t *testing.T) {
	c := Config{Scale: 0.5}.WithDefaults()
	if c.ScaleInt(100) != 50 {
		t.Fatalf("ScaleInt(100) = %d, want 50", c.ScaleInt(100))
	}
	if c.ScaleInt(1) != 1 {
		t.Fatal("ScaleInt floor must be 1")
	}
}

func TestRegistry(t *testing.T) {
	reg, err := NewRegistry(&fakeExp{id: "E01"}, &fakeExp{id: "E02", fail: true})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	if len(reg.All()) != 2 {
		t.Fatalf("All = %d, want 2", len(reg.All()))
	}
	if _, err := reg.Get("e01"); err != nil {
		t.Fatalf("case-insensitive Get failed: %v", err)
	}
	if _, err := reg.Get("E99"); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown id error = %v", err)
	}
	res, err := reg.Run("E01", Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Reproduced() {
		t.Fatal("passing experiment reported as not reproduced")
	}
	res2, err := reg.Run("E02", Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res2.Reproduced() {
		t.Fatal("failing experiment reported as reproduced")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	if _, err := NewRegistry(&fakeExp{id: "E01"}, &fakeExp{id: "e01"}); err == nil {
		t.Fatal("duplicate ids should error")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "E01", Title: "demo", Claim: "the claim"}
	tab := metrics.NewTable("numbers", "x")
	tab.AddRow("42")
	r.Tables = append(r.Tables, tab)
	fig := &metrics.Figure{Title: "figure"}
	fig.Add("s", 1, 2)
	r.Figures = append(r.Figures, fig)
	r.AddCheck(true, "good", "fine")
	r.AddCheck(false, "bad", "broken")
	out := r.String()
	for _, want := range []string{"E01", "the claim", "numbers", "42", "figure", "[PASS] good", "[FAIL] bad"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	if r.Reproduced() {
		t.Fatal("result with a failing check cannot be reproduced")
	}
}

func TestEmptyResultNotReproduced(t *testing.T) {
	r := &Result{}
	if r.Reproduced() {
		t.Fatal("no checks should mean not reproduced")
	}
}

func TestConfigParams(t *testing.T) {
	cfg := Config{Params: map[string]float64{"knob": 2.5}}
	if got := cfg.Param("knob", 1); got != 2.5 {
		t.Fatalf("Param(knob) = %g", got)
	}
	if got := cfg.Param("missing", 4); got != 4 {
		t.Fatalf("Param(missing) = %g, want default", got)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := &Result{ID: "E06", Title: "demo", Claim: "the claim"}
	tab := metrics.NewTable("numbers", "x", "y")
	tab.AddRowf("a", 1.5)
	r.Tables = append(r.Tables, tab)
	r.AddCheck(true, "good", "fine")
	data, err := r.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.ID != "E06" || len(back.Tables) != 1 || len(back.Checks) != 1 || !back.Checks[0].OK {
		t.Fatalf("round trip lost data: %+v", back)
	}
	data2, err := r.JSON()
	if err != nil || !bytes.Equal(data, data2) {
		t.Fatalf("Result.JSON not deterministic")
	}
}
