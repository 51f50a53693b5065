package pow

import (
	"math"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
)

func TestNetworkValidation(t *testing.T) {
	s := sim.New()
	if _, err := NewNetwork(s, Params{}, []float64{1}); err == nil {
		t.Fatal("zero interval should error")
	}
	if _, err := NewNetwork(s, Params{BlockInterval: time.Minute}, nil); err == nil {
		t.Fatal("no miners should error")
	}
	if _, err := NewNetwork(s, Params{BlockInterval: time.Minute}, []float64{0}); err == nil {
		t.Fatal("zero total hashrate should error")
	}
	if _, err := NewNetwork(s, Params{BlockInterval: time.Minute}, []float64{-1, 2}); err == nil {
		t.Fatal("negative hashrate should error")
	}
}

func TestBlockIntervalMatchesTarget(t *testing.T) {
	s := sim.New(sim.WithSeed(1))
	// Difficulty and hashrate chosen so H/D = 1/600 blocks per second.
	nw, err := NewNetwork(s, Params{
		BlockInterval:     10 * time.Minute,
		InitialDifficulty: 600,
	}, []float64{0.4, 0.3, 0.3})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	nw.Start()
	if err := s.RunUntil(1000 * 10 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	nw.Stop()
	st := nw.Finalize()
	if st.BestHeight < 800 || st.BestHeight > 1200 {
		t.Fatalf("BestHeight = %d, want ~1000", st.BestHeight)
	}
	got := st.MeanInterval.Seconds()
	if math.Abs(got-600) > 60 {
		t.Fatalf("mean interval = %vs, want ~600s", got)
	}
}

func TestMinerSharesProportionalToHashrate(t *testing.T) {
	s := sim.New(sim.WithSeed(2))
	nw, err := NewNetwork(s, Params{
		BlockInterval:     time.Minute,
		InitialDifficulty: 60,
	}, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	nw.Start()
	if err := s.RunUntil(3000 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	nw.Stop()
	st := nw.Finalize()
	want := []float64{0.5, 0.3, 0.2}
	for i, share := range st.MinerShares {
		if math.Abs(share-want[i]) > 0.04 {
			t.Fatalf("miner %d share = %v, want ~%v", i, share, want[i])
		}
	}
}

func TestStaleRateGrowsWithPropagationDelay(t *testing.T) {
	run := func(delay time.Duration) float64 {
		s := sim.New(sim.WithSeed(3))
		nw, err := NewNetwork(s, Params{
			BlockInterval:     time.Minute,
			InitialDifficulty: 60,
			Propagation: func(g *sim.RNG, size int) time.Duration {
				return g.Jitter(delay, 0.2)
			},
		}, []float64{0.25, 0.25, 0.25, 0.25})
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		nw.Start()
		if err := s.RunUntil(4000 * time.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		nw.Stop()
		return nw.Finalize().StaleRate
	}
	fast := run(100 * time.Millisecond)
	slow := run(20 * time.Second)
	if fast > 0.02 {
		t.Fatalf("fast-propagation stale rate = %v, want <2%%", fast)
	}
	if slow < 5*fast || slow < 0.1 {
		t.Fatalf("slow-propagation stale rate = %v (fast %v), want a large increase", slow, fast)
	}
	// Compare with the analytic model: 1-e^(-d/i) for d=20s/i=60s ~ 0.28.
	model := StaleRateModel(20*time.Second, time.Minute)
	if math.Abs(slow-model) > 0.12 {
		t.Fatalf("simulated stale rate %v far from model %v", slow, model)
	}
}

func TestDifficultyRetargetTracksHashrateGrowth(t *testing.T) {
	s := sim.New(sim.WithSeed(4))
	nw, err := NewNetwork(s, Params{
		BlockInterval:     time.Minute,
		InitialDifficulty: 60,
		RetargetWindow:    50,
	}, []float64{1})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	nw.Start()
	// Double the hashrate every simulated hour, 6 times.
	for epoch := 1; epoch <= 6; epoch++ {
		epoch := epoch
		s.At(time.Duration(epoch)*time.Hour, func() {
			nw.SetHashrate(0, math.Pow(2, float64(epoch)))
		})
	}
	if err := s.RunUntil(10 * time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	nw.Stop()
	if nw.Difficulty() < 20*60 {
		t.Fatalf("difficulty = %v, should have risen with 64x hashrate (start 60)", nw.Difficulty())
	}
	// Late-run interval should still be near target: measure last 50 blocks.
	st := nw.Finalize()
	if st.BestHeight < 300 {
		t.Fatalf("BestHeight = %d, expected hundreds of blocks", st.BestHeight)
	}
	// Mean interval over the whole run is biased by adjustment lag; assert
	// the difficulty kept within 4x of the ideal for the final hashrate.
	ideal := 64.0 * 60 // hashrate 64, 60s target
	ratio := nw.Difficulty() / ideal
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("final difficulty %v vs ideal %v (ratio %v)", nw.Difficulty(), ideal, ratio)
	}
}

func TestSelfishMiningMatchesClosedForm(t *testing.T) {
	g := sim.NewRNG(5)
	tests := []struct {
		alpha, gamma float64
	}{
		{0.2, 0},
		{0.35, 0},
		{0.45, 0},
		{0.3, 0.5},
		{0.4, 1},
	}
	for _, tt := range tests {
		out, err := SimulateSelfishMining(g, tt.alpha, tt.gamma, 400_000)
		if err != nil {
			t.Fatalf("SimulateSelfishMining: %v", err)
		}
		want := SelfishRevenueClosedForm(tt.alpha, tt.gamma)
		if math.Abs(out.RevenueShare-want) > 0.01 {
			t.Fatalf("alpha=%v gamma=%v: revenue %v, closed form %v",
				tt.alpha, tt.gamma, out.RevenueShare, want)
		}
	}
}

func TestSelfishThreshold(t *testing.T) {
	if got := SelfishThreshold(0); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("threshold(0) = %v, want 1/3", got)
	}
	if got := SelfishThreshold(1); math.Abs(got-0) > 1e-12 {
		t.Fatalf("threshold(1) = %v, want 0", got)
	}
	// Below the threshold selfish mining must lose; above it must win.
	g := sim.NewRNG(6)
	below, err := SimulateSelfishMining(g, 0.25, 0, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if below.Profitable() {
		t.Fatalf("alpha=0.25 gamma=0 should be unprofitable, got share %v", below.RevenueShare)
	}
	above, err := SimulateSelfishMining(g, 0.4, 0, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !above.Profitable() {
		t.Fatalf("alpha=0.4 gamma=0 should be profitable, got share %v", above.RevenueShare)
	}
}

func TestSelfishValidation(t *testing.T) {
	g := sim.NewRNG(1)
	if _, err := SimulateSelfishMining(g, 0, 0, 10); err == nil {
		t.Fatal("alpha=0 should error")
	}
	if _, err := SimulateSelfishMining(g, 0.3, 2, 10); err == nil {
		t.Fatal("gamma>1 should error")
	}
}

func TestDoubleSpendClosedFormMatchesNakamoto(t *testing.T) {
	// Values from the Bitcoin paper, section 11 (q=0.1).
	tests := []struct {
		z    int
		want float64
	}{
		{1, 0.2045873},
		{2, 0.0509779},
		{5, 0.0009137},
		{10, 0.0000012},
	}
	for _, tt := range tests {
		got := DoubleSpendProbability(0.1, tt.z)
		if math.Abs(got-tt.want) > 1e-5 {
			t.Fatalf("P(q=0.1, z=%d) = %v, want %v", tt.z, got, tt.want)
		}
	}
	// q=0.3 from the paper: z=5 -> 0.1773523.
	if got := DoubleSpendProbability(0.3, 5); math.Abs(got-0.1773523) > 1e-5 {
		t.Fatalf("P(q=0.3, z=5) = %v, want 0.1773523", got)
	}
}

func TestDoubleSpendEdgeCases(t *testing.T) {
	if DoubleSpendProbability(0, 3) != 0 {
		t.Fatal("q=0 must be 0")
	}
	if DoubleSpendProbability(0.5, 3) != 1 {
		t.Fatal("q>=0.5 must be 1")
	}
	if DoubleSpendProbability(0.1, 0) != 1 {
		t.Fatal("z=0 must be 1 (no confirmations)")
	}
}

func TestDoubleSpendMonteCarloMatchesExactForm(t *testing.T) {
	g := sim.NewRNG(7)
	for _, q := range []float64{0.1, 0.25} {
		for _, z := range []int{1, 3, 6} {
			got, err := SimulateDoubleSpend(g, q, z, 40_000)
			if err != nil {
				t.Fatalf("SimulateDoubleSpend: %v", err)
			}
			want := DoubleSpendProbabilityExact(q, z)
			if math.Abs(got-want) > 0.015 {
				t.Fatalf("q=%v z=%d: monte carlo %v vs exact form %v", q, z, got, want)
			}
		}
	}
}

func TestNakamotoFormIsUpperBoundOfExact(t *testing.T) {
	// Nakamoto's Poisson/tie-wins approximation over-estimates the exact
	// race probability; both decay geometrically in z.
	for _, q := range []float64{0.1, 0.2, 0.3} {
		prev := 1.0
		for z := 1; z <= 8; z++ {
			nak := DoubleSpendProbability(q, z)
			exact := DoubleSpendProbabilityExact(q, z)
			if exact > nak {
				t.Fatalf("exact(%v,%d)=%v exceeds nakamoto=%v", q, z, exact, nak)
			}
			if exact > prev {
				t.Fatalf("exact not decreasing at z=%d for q=%v", z, q)
			}
			prev = exact
		}
	}
}

func TestConfirmationsForRisk(t *testing.T) {
	// Nakamoto's table: q=0.1 requires 5 confirmations for P<0.1%.
	if got := ConfirmationsForRisk(0.1, 0.001, 100); got != 5 {
		t.Fatalf("ConfirmationsForRisk(0.1, 0.1%%) = %d, want 5", got)
	}
	// q=0.45 requires far more.
	if got := ConfirmationsForRisk(0.45, 0.001, 1000); got < 100 {
		t.Fatalf("ConfirmationsForRisk(0.45) = %d, want >= 100", got)
	}
	if got := ConfirmationsForRisk(0.5, 0.001, 10); got != 11 {
		t.Fatalf("unreachable risk should return maxZ+1, got %d", got)
	}
}

func TestThroughputParams(t *testing.T) {
	slow := BitcoinParams(500)
	fast := BitcoinParams(240)
	if tps := slow.TPS(); math.Abs(tps-3.33) > 0.1 {
		t.Fatalf("bitcoin 500B tps = %v, want ~3.3", tps)
	}
	if tps := fast.TPS(); math.Abs(tps-6.94) > 0.15 {
		t.Fatalf("bitcoin 240B tps = %v, want ~7", tps)
	}
	eth := EthereumParams()
	if tps := eth.TPS(); tps < 12 || tps > 18 {
		t.Fatalf("ethereum tps = %v, want ~15", tps)
	}
	if VisaReferenceTPS/slow.TPS() < 1000 {
		t.Fatal("VISA/bitcoin ratio must be >= 3 orders of magnitude")
	}
}

func TestEffectiveSecurityShare(t *testing.T) {
	if got := EffectiveSecurityShare(0); got != 0.5 {
		t.Fatalf("no staleness -> 0.5, got %v", got)
	}
	if got := EffectiveSecurityShare(0.5); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("50%% stale -> 1/3, got %v", got)
	}
	if got := EffectiveSecurityShare(1); got != 0 {
		t.Fatalf("total staleness -> 0, got %v", got)
	}
}

func TestObserveCallback(t *testing.T) {
	s := sim.New(sim.WithSeed(8))
	nw, err := NewNetwork(s, Params{
		BlockInterval:     time.Minute,
		InitialDifficulty: 60,
	}, []float64{1})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	count := 0
	nw.onBlock = func(b *ledger.Block, m *Miner) {
		count++
		if m.ID != 0 {
			t.Errorf("unexpected miner id %d", m.ID)
		}
	}
	nw.Start()
	if err := s.RunUntil(100 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	nw.Stop()
	if count == 0 || count != len(nw.blockMiner) {
		t.Fatalf("observer saw %d blocks, network found %d", count, len(nw.blockMiner))
	}
}
