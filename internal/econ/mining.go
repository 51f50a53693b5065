package econ

import (
	"errors"
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// HardwareGen describes one mining hardware generation.
type HardwareGen struct {
	// Name labels the generation.
	Name string
	// HashPerSec is per-unit hashrate (consistent arbitrary units).
	HashPerSec float64
	// Watts is per-unit power draw.
	Watts float64
	// UnitCostUSD is the capital cost of one unit.
	UnitCostUSD float64
	// AvailableFrom is the first epoch the generation can be bought.
	AvailableFrom int
}

// DefaultHardwareGens returns the CPU → GPU → ASIC progression with
// efficiency (hash/joule) jumps of several orders of magnitude, matching the
// historical Bitcoin arms race.
func DefaultHardwareGens() []HardwareGen {
	return []HardwareGen{
		{Name: "cpu", HashPerSec: 1, Watts: 100, UnitCostUSD: 500, AvailableFrom: 0},
		{Name: "gpu", HashPerSec: 400, Watts: 300, UnitCostUSD: 800, AvailableFrom: 2},
		{Name: "asic-1", HashPerSec: 2e5, Watts: 1200, UnitCostUSD: 3000, AvailableFrom: 6},
		{Name: "asic-2", HashPerSec: 3e6, Watts: 1400, UnitCostUSD: 4000, AvailableFrom: 12},
	}
}

// MiningEconConfig parameterizes the mining-economy simulation.
type MiningEconConfig struct {
	// Epochs is the horizon (one epoch ≈ one month).
	Epochs int
	// Hobbyists is the number of commodity miners (one unit each, retail
	// electricity); Farms is the number of industrial operations
	// (wholesale electricity, reinvested profits).
	Hobbyists, Farms int
}

func (c MiningEconConfig) withDefaults() (MiningEconConfig, error) {
	if c.Epochs <= 0 {
		return c, errors.New("econ: Epochs must be positive")
	}
	if c.Hobbyists <= 0 || c.Farms <= 0 {
		return c, errors.New("econ: need both hobbyists and farms")
	}
	return c, nil
}

// EpochStat records the network state at one epoch.
type EpochStat struct {
	Epoch            int
	NetworkHash      float64
	HobbyistsActive  int
	FarmsActive      int
	HobbyistProfit   float64 // USD per hobbyist per epoch
	FarmShare        float64 // fraction of hashrate held by farms
	NetworkPowerWatt float64
}

// MiningEconResult reports the arms-race trajectory.
type MiningEconResult struct {
	Epochs []EpochStat
	// HobbyistExtinctionEpoch is the first epoch with no active
	// hobbyists (-1 if they survive the horizon).
	HobbyistExtinctionEpoch int
	// FinalFarmShare is the farms' final hashrate share.
	FinalFarmShare float64
}

const (
	hoursPerEpoch = 730 // one month
	// rewardUSDPerEpoch is the total network mining revenue per epoch.
	rewardUSDPerEpoch = 5_000_000
	// retailElecUSDPerKWh and wholesaleElecUSDPerKWh are the electricity
	// prices hobbyists and farms pay.
	retailElecUSDPerKWh, wholesaleElecUSDPerKWh = 0.20, 0.04
	// exitAfterLossEpochs is how many consecutive loss epochs a hobbyist
	// tolerates before quitting.
	exitAfterLossEpochs = 2
)

// RunMiningEconomy simulates the hardware arms race: farms reinvest profit
// into the best available generation while hobbyists run one commodity unit
// at retail electricity prices and exit after sustained losses.
func RunMiningEconomy(g *sim.RNG, cfg MiningEconConfig) (*MiningEconResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	gens := DefaultHardwareGens()
	type agent struct {
		farm       bool
		units      float64
		gen        int
		elec       float64
		lossStreak int
		active     bool
	}
	agents := make([]*agent, 0, cfg.Hobbyists+cfg.Farms)
	for i := 0; i < cfg.Hobbyists; i++ {
		agents = append(agents, &agent{
			units:  1,
			gen:    0,
			elec:   retailElecUSDPerKWh * (0.8 + 0.4*g.Float64()),
			active: true,
		})
	}
	for i := 0; i < cfg.Farms; i++ {
		agents = append(agents, &agent{
			farm:   true,
			units:  1 + g.Float64()*4,
			gen:    0,
			elec:   wholesaleElecUSDPerKWh * (0.8 + 0.4*g.Float64()),
			active: true,
		})
	}
	res := &MiningEconResult{HobbyistExtinctionEpoch: -1}
	bestGen := func(epoch int) int {
		best := 0
		for i, gen := range gens {
			if gen.AvailableFrom <= epoch {
				best = i
			}
		}
		return best
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Farms upgrade to the newest generation and reinvest.
		for _, a := range agents {
			if !a.active || !a.farm {
				continue
			}
			if ng := bestGen(epoch); ng > a.gen {
				// Replace fleet: capital rolls over at half value.
				a.units = a.units*gens[a.gen].UnitCostUSD/gens[ng].UnitCostUSD/2 + 1
				a.gen = ng
			}
		}
		var totalHash, totalPower float64
		for _, a := range agents {
			if !a.active {
				continue
			}
			totalHash += a.units * gens[a.gen].HashPerSec
		}
		if totalHash == 0 {
			break
		}
		var hobbyProfit float64
		var hobbyActive, farmActive int
		var farmHash float64
		for _, a := range agents {
			if !a.active {
				continue
			}
			hash := a.units * gens[a.gen].HashPerSec
			watts := a.units * gens[a.gen].Watts
			totalPower += watts
			revenue := rewardUSDPerEpoch * hash / totalHash
			cost := watts / 1000 * hoursPerEpoch * a.elec
			profit := revenue - cost
			if a.farm {
				farmActive++
				farmHash += hash
				if profit > 0 {
					// Reinvest into more units of the current generation.
					a.units += profit / gens[a.gen].UnitCostUSD
				}
				continue
			}
			hobbyActive++
			hobbyProfit += profit
			if profit < 0 {
				a.lossStreak++
				if a.lossStreak >= exitAfterLossEpochs {
					a.active = false
				}
			} else {
				a.lossStreak = 0
			}
		}
		stat := EpochStat{
			Epoch:            epoch,
			NetworkHash:      totalHash,
			HobbyistsActive:  hobbyActive,
			FarmsActive:      farmActive,
			FarmShare:        farmHash / totalHash,
			NetworkPowerWatt: totalPower,
		}
		if hobbyActive > 0 {
			stat.HobbyistProfit = hobbyProfit / float64(hobbyActive)
		}
		res.Epochs = append(res.Epochs, stat)
		if hobbyActive == 0 && res.HobbyistExtinctionEpoch < 0 {
			res.HobbyistExtinctionEpoch = epoch
		}
	}
	if n := len(res.Epochs); n > 0 {
		res.FinalFarmShare = res.Epochs[n-1].FarmShare
	}
	return res, nil
}

// PoolConfig parameterizes pool-concentration dynamics: miners pick pools to
// minimize payout variance, which favours large pools — preferential
// attachment again, now over hashpower.
type PoolConfig struct {
	// Miners is the number of miners choosing a pool.
	Miners int
	// SizeBias is the preferential-attachment exponent (1 = linear;
	// >1 = super-linear, winner-take-most).
	SizeBias float64
}

const (
	// pools is the number of candidate pools.
	pools = 20
	// feeSpread adds per-pool fitness noise (pool fees/reliability).
	feeSpread = 0.3
)

// PoolResult reports pool-concentration outcomes.
type PoolResult struct {
	// Shares is each pool's hashpower share, descending.
	Shares []float64
	// Top6 is the combined share of the six largest pools (the paper's
	// "six mining pools controlled 75%" comparison point).
	Top6 float64
	// HHI is the concentration index.
	HHI float64
}

// RunPoolFormation assigns miners to pools one at a time with probability
// proportional to fitness × (pool hashpower + 1)^SizeBias.
func RunPoolFormation(g *sim.RNG, cfg PoolConfig) (*PoolResult, error) {
	if cfg.Miners < pools {
		return nil, errors.New("econ: need more miners than pools")
	}
	if cfg.SizeBias <= 0 {
		cfg.SizeBias = 1
	}
	fitness := make([]float64, pools)
	for i := range fitness {
		fitness[i] = 1 + feeSpread*g.Float64()
	}
	size := make([]float64, pools)
	for m := 0; m < cfg.Miners; m++ {
		var total float64
		weights := make([]float64, pools)
		for i := range weights {
			weights[i] = fitness[i] * math.Pow(size[i]+1, cfg.SizeBias)
			total += weights[i]
		}
		target := g.Float64() * total
		var cum float64
		pick := pools - 1
		for i, w := range weights {
			cum += w
			if target < cum {
				pick = i
				break
			}
		}
		size[pick]++
	}
	shares := make([]float64, pools)
	for i, s := range size {
		shares[i] = s / float64(cfg.Miners)
	}
	for i := 1; i < len(shares); i++ {
		for j := i; j > 0 && shares[j] > shares[j-1]; j-- {
			shares[j], shares[j-1] = shares[j-1], shares[j]
		}
	}
	return &PoolResult{
		Shares: shares,
		Top6:   metrics.TopShare(shares, 6),
		HHI:    metrics.HHI(shares),
	}, nil
}
