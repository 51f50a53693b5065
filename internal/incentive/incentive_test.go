package incentive

import (
	"testing"

	"repro/internal/sim"
)

// baseConfig models the paper's "selfish universe": peers leave as soon as
// their download completes — precisely the Problem-1 observation that
// collaboration is only enforced during the download.
func baseConfig() SwarmConfig {
	return SwarmConfig{
		Peers:         100,
		FreeRiderFrac: 0.3,
	}
}

func TestValidation(t *testing.T) {
	g := sim.NewRNG(1)
	if _, err := RunSwarm(g, SwarmConfig{Peers: 1}, 10); err == nil {
		t.Fatal("Peers<2 should error")
	}
}

func TestTitForTatPenalizesFreeRiders(t *testing.T) {
	g := sim.NewRNG(42)
	cfg := baseConfig()
	cfg.TitForTat = true
	res, err := RunSwarm(g, cfg, 3000)
	if err != nil {
		t.Fatalf("RunSwarm: %v", err)
	}
	if res.CooperatorsDone < res.Cooperators*9/10 {
		t.Fatalf("only %d/%d cooperators finished", res.CooperatorsDone, res.Cooperators)
	}
	slow := res.SlowdownFactor()
	if slow < 2.0 {
		t.Fatalf("tit-for-tat slowdown = %v, want free riders clearly penalized (>2x)", slow)
	}
}

func TestNoIncentiveFreeRidersRideFree(t *testing.T) {
	g := sim.NewRNG(42)
	cfg := baseConfig()
	cfg.TitForTat = false
	res, err := RunSwarm(g, cfg, 3000)
	if err != nil {
		t.Fatalf("RunSwarm: %v", err)
	}
	slow := res.SlowdownFactor()
	if slow == 0 {
		t.Fatalf("no free riders finished in baseline: %+v", res)
	}
	// Without reciprocity, free riders finish about as fast as cooperators.
	if slow > 1.25 {
		t.Fatalf("baseline slowdown = %v, want ~1 (free riding is free)", slow)
	}
}

func TestTitForTatWorseThanBaselineForFreeRiders(t *testing.T) {
	run := func(tft bool) float64 {
		g := sim.NewRNG(7)
		cfg := baseConfig()
		cfg.TitForTat = tft
		res, err := RunSwarm(g, cfg, 3000)
		if err != nil {
			t.Fatalf("RunSwarm: %v", err)
		}
		if res.FreeRiderRounds.Count() == 0 {
			return float64(res.Rounds) * 2 // never finished: worst case
		}
		return res.FreeRiderRounds.Mean()
	}
	baseline := run(false)
	tft := run(true)
	if tft <= baseline {
		t.Fatalf("free riders under TFT (%v rounds) should finish later than baseline (%v rounds)", tft, baseline)
	}
}

func TestAllCooperatorsSwarmCompletes(t *testing.T) {
	g := sim.NewRNG(3)
	cfg := baseConfig()
	cfg.FreeRiderFrac = 0
	cfg.TitForTat = true
	res, err := RunSwarm(g, cfg, 3000)
	if err != nil {
		t.Fatalf("RunSwarm: %v", err)
	}
	if res.FreeRiders != 0 {
		t.Fatalf("FreeRiders = %d with frac 0", res.FreeRiders)
	}
	if res.CooperatorsDone != res.Cooperators {
		t.Fatalf("%d/%d cooperators finished", res.CooperatorsDone, res.Cooperators)
	}
	if res.SeedUploads == 0 || res.CooperatorUploads == 0 {
		t.Fatal("upload accounting empty")
	}
}

func TestStrategyString(t *testing.T) {
	if Cooperator.String() != "cooperator" || FreeRider.String() != "free-rider" {
		t.Fatal("Strategy String() wrong")
	}
	if Strategy(0).String() != "unknown" {
		t.Fatal("zero Strategy should be unknown")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		g := sim.NewRNG(99)
		cfg := baseConfig()
		cfg.TitForTat = true
		res, err := RunSwarm(g, cfg, 2000)
		if err != nil {
			t.Fatalf("RunSwarm: %v", err)
		}
		return res.CooperatorRounds.Mean()
	}
	if run() != run() {
		t.Fatal("equal seeds must produce identical swarms")
	}
}
