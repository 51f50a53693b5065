package decent

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestExperimentsRegistry(t *testing.T) {
	reg, err := Experiments()
	if err != nil {
		t.Fatalf("Experiments: %v", err)
	}
	if len(reg.All()) != 19 {
		t.Fatalf("registry size = %d, want 19", len(reg.All()))
	}
}

func TestRunByID(t *testing.T) {
	res, err := Run("E11", Config{Seed: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ID != "E11" {
		t.Fatalf("result id = %q", res.ID)
	}
	if !res.Reproduced() {
		t.Fatalf("E11 failed its shape checks:\n%s", res)
	}
}

func TestUnknownKnobRejectedAtLibraryLevel(t *testing.T) {
	_, err := Run("E11", Config{Seed: 1, Params: map[string]float64{"bogus.knob": 1}})
	if err == nil || !strings.Contains(err.Error(), "unknown knob") {
		t.Fatalf("err = %v", err)
	}
}

func TestForeignKnobRejectedAtLibraryLevel(t *testing.T) {
	// A knob owned by an experiment that is not running must error, not
	// silently label duplicate groups.
	_, err := Run("E11", Config{Seed: 1, Params: map[string]float64{"e03.lookups": 100}})
	if err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", Config{}); !errors.Is(err, core.ErrUnknownExperiment) {
		t.Fatalf("unknown id error = %v", err)
	}
}
