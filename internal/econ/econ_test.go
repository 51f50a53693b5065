package econ

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestMarketValidation(t *testing.T) {
	g := sim.NewRNG(1)
	if _, err := RunMarket(g, MarketConfig{Providers: 1, Customers: 10}); err == nil {
		t.Fatal("one provider should error")
	}
	if _, err := RunMarket(g, MarketConfig{Providers: 10, Customers: 5}); err == nil {
		t.Fatal("too few customers should error")
	}
}

func TestMarketConcentrates(t *testing.T) {
	g := sim.NewRNG(2)
	res, err := RunMarket(g, MarketConfig{
		Providers:    30,
		Customers:    100_000,
		FitnessSigma: 1.0,
	})
	if err != nil {
		t.Fatalf("RunMarket: %v", err)
	}
	if res.Top1 < 0.15 {
		t.Fatalf("Top1 = %v, expected a dominant provider", res.Top1)
	}
	if res.Top3 < 0.5 {
		t.Fatalf("Top3 = %v, expected majority concentration", res.Top3)
	}
	if res.Top3 > res.Top5 || res.Top1 > res.Top3 {
		t.Fatal("share ordering violated")
	}
	// Shares must sum to ~1 and be sorted descending.
	var sum float64
	for i, s := range res.Shares {
		sum += s
		if i > 0 && s > res.Shares[i-1] {
			t.Fatal("shares not sorted descending")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum = %v, want 1", sum)
	}
}

func TestMarketUniformWithoutFitness(t *testing.T) {
	// With zero fitness spread the lock-in is weaker: top1 should be well
	// below the high-fitness case.
	g := sim.NewRNG(3)
	flat, err := RunMarket(g, MarketConfig{Providers: 30, Customers: 100_000, FitnessSigma: 0})
	if err != nil {
		t.Fatalf("RunMarket: %v", err)
	}
	skewed, err := RunMarket(g, MarketConfig{Providers: 30, Customers: 100_000, FitnessSigma: 1.5})
	if err != nil {
		t.Fatalf("RunMarket: %v", err)
	}
	if flat.HHI >= skewed.HHI {
		t.Fatalf("fitness spread should raise concentration: flat HHI %v, skewed %v", flat.HHI, skewed.HHI)
	}
}

func TestMiningEconomyValidation(t *testing.T) {
	g := sim.NewRNG(4)
	if _, err := RunMiningEconomy(g, MiningEconConfig{}); err == nil {
		t.Fatal("zero config should error")
	}
}

func TestMiningArmsRaceExpelsHobbyists(t *testing.T) {
	g := sim.NewRNG(5)
	res, err := RunMiningEconomy(g, MiningEconConfig{
		Epochs:    24,
		Hobbyists: 500,
		Farms:     20,
	})
	if err != nil {
		t.Fatalf("RunMiningEconomy: %v", err)
	}
	first := res.Epochs[0]
	last := res.Epochs[len(res.Epochs)-1]
	if last.NetworkHash <= first.NetworkHash*100 {
		t.Fatalf("hashrate should explode with ASICs: %v -> %v", first.NetworkHash, last.NetworkHash)
	}
	if res.FinalFarmShare < 0.95 {
		t.Fatalf("farm share = %v, want industrial dominance", res.FinalFarmShare)
	}
	if last.HobbyistsActive > first.HobbyistsActive/4 {
		t.Fatalf("hobbyists %d -> %d: retail mining should collapse", first.HobbyistsActive, last.HobbyistsActive)
	}
	// Hobbyist profitability must turn negative once ASICs arrive.
	sawLoss := false
	for _, e := range res.Epochs {
		if e.HobbyistsActive > 0 && e.HobbyistProfit < 0 {
			sawLoss = true
			break
		}
	}
	if !sawLoss {
		t.Fatal("hobbyist mining never became unprofitable")
	}
}

func TestPoolFormationConcentrates(t *testing.T) {
	g := sim.NewRNG(6)
	res, err := RunPoolFormation(g, PoolConfig{
		Miners:   10_000,
		SizeBias: 1.3,
	})
	if err != nil {
		t.Fatalf("RunPoolFormation: %v", err)
	}
	if res.Top6 < 0.6 {
		t.Fatalf("Top6 = %v, want the paper's 'few pools dominate' shape (>60%%)", res.Top6)
	}
	var sum float64
	for _, s := range res.Shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pool shares sum = %v", sum)
	}
}

func TestPoolFormationLinearVsSuperlinear(t *testing.T) {
	g := sim.NewRNG(7)
	linear, err := RunPoolFormation(g, PoolConfig{Miners: 10_000, SizeBias: 1})
	if err != nil {
		t.Fatal(err)
	}
	superlinear, err := RunPoolFormation(g, PoolConfig{Miners: 10_000, SizeBias: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if superlinear.HHI <= linear.HHI {
		t.Fatalf("super-linear attachment should concentrate more: %v vs %v", superlinear.HHI, linear.HHI)
	}
}

func TestPoolValidation(t *testing.T) {
	g := sim.NewRNG(8)
	if _, err := RunPoolFormation(g, PoolConfig{Miners: 10}); err == nil {
		t.Fatal("fewer miners than pools should error")
	}
}

func TestEnergyModel2018(t *testing.T) {
	p := Bitcoin2018Energy()
	twh := p.AnnualTWh()
	// The Economist's 2018 figure is ~70 TWh; the model should land in
	// 40–100 TWh.
	if twh < 40 || twh > 100 {
		t.Fatalf("AnnualTWh = %v, want 40-100 (paper cites ~70)", twh)
	}
	perTx, err := p.PerTxKWh(4)
	if err != nil {
		t.Fatalf("PerTxKWh: %v", err)
	}
	// Hundreds of kWh per transaction — the absurdity the paper gestures at.
	if perTx < 100 || perTx > 2000 {
		t.Fatalf("PerTxKWh = %v, want hundreds", perTx)
	}
}

func TestEnergyScalesWithPrice(t *testing.T) {
	low := Bitcoin2018Energy()
	high := Bitcoin2018Energy()
	high.CoinPriceUSD *= 2
	lowTWh, highTWh := low.AnnualTWh(), high.AnnualTWh()
	if math.Abs(highTWh/lowTWh-2) > 1e-9 {
		t.Fatalf("energy should scale linearly with price: %v -> %v", lowTWh, highTWh)
	}
}

func TestEnergyValidation(t *testing.T) {
	p := Bitcoin2018Energy()
	if _, err := p.PerTxKWh(0); err == nil {
		t.Fatal("zero tps should error")
	}
}

func TestChainGrowth(t *testing.T) {
	p := NodeCostParams{TPS: 4, TxBytes: 400}
	p, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// 4 tx/s * 400 B = 1600 B/s ~ 50.4 GB/year.
	if g := p.ChainGrowthGBPerYear(); math.Abs(g-50.4) > 1 {
		t.Fatalf("ChainGrowthGBPerYear = %v, want ~50", g)
	}
}

func TestNodeCostFullNodeErosion(t *testing.T) {
	g := sim.NewRNG(9)
	res, err := RunNodeCostModel(g, NodeCostParams{
		TPS:            4,
		TxBytes:        400,
		Years:          10,
		Nodes:          10_000,
		DiskGBMedian:   320,
		InitialChainGB: 150,
	})
	if err != nil {
		t.Fatalf("RunNodeCostModel: %v", err)
	}
	if res.FullFracEnd >= res.FullFracStart {
		t.Fatalf("full-node fraction should erode: %v -> %v", res.FullFracStart, res.FullFracEnd)
	}
	// Monotone non-increasing.
	for i := 1; i < len(res.Years); i++ {
		if res.Years[i].FullFrac > res.Years[i-1].FullFrac+1e-12 {
			t.Fatal("full-node fraction increased over time")
		}
	}
}

func TestNodeCostScaledThroughputErodesFaster(t *testing.T) {
	run := func(tps float64) float64 {
		g := sim.NewRNG(10)
		res, err := RunNodeCostModel(g, NodeCostParams{
			TPS: tps, TxBytes: 400, Years: 10, Nodes: 5000,
			DiskGBMedian: 320, InitialChainGB: 150,
		})
		if err != nil {
			t.Fatalf("RunNodeCostModel: %v", err)
		}
		return res.FullFracEnd
	}
	bitcoinScale := run(4)
	visaScale := run(4000)
	if visaScale >= bitcoinScale {
		t.Fatalf("VISA-scale throughput should erode full nodes faster: %v vs %v", visaScale, bitcoinScale)
	}
	if visaScale > 0.05 {
		t.Fatalf("at VISA scale almost nobody can run a full node, got %v", visaScale)
	}
}

func TestNodeCostValidation(t *testing.T) {
	g := sim.NewRNG(11)
	if _, err := RunNodeCostModel(g, NodeCostParams{}); err == nil {
		t.Fatal("zero TPS should error")
	}
}
