package econ

import (
	"errors"
	"math"

	"repro/internal/sim"
)

// NodeCostParams models the resource demands a broadcast blockchain places
// on every full node: the chain grows with transaction rate, and validation
// bandwidth/CPU grows with it. Nodes whose resources fall below the demand
// demote to light clients — the paper's "retagging nodes as light nodes"
// observation.
type NodeCostParams struct {
	// TPS is the sustained transaction rate.
	TPS float64
	// TxBytes is the mean on-chain size per transaction.
	TxBytes int
	// Years is the horizon.
	Years int
	// Nodes is the node population.
	Nodes int
	// DiskGBMedian is the median of the lognormal distribution of per-node
	// disk budgets for chain storage; its sigma is diskGBSigma.
	DiskGBMedian float64
	// InitialChainGB is the chain size at year zero.
	InitialChainGB float64
}

func (p NodeCostParams) withDefaults() (NodeCostParams, error) {
	if p.TPS <= 0 {
		return p, errors.New("econ: TPS must be positive")
	}
	if p.TxBytes <= 0 {
		p.TxBytes = 400
	}
	if p.Years <= 0 {
		p.Years = 10
	}
	if p.Nodes <= 0 {
		p.Nodes = 10_000
	}
	if p.DiskGBMedian <= 0 {
		p.DiskGBMedian = 320
	}
	return p, nil
}

// diskGBSigma is the lognormal sigma of per-node disk budgets.
const diskGBSigma = 1.0

// ChainGrowthGBPerYear returns annual chain growth.
func (p NodeCostParams) ChainGrowthGBPerYear() float64 {
	return p.TPS * float64(p.TxBytes) * 86_400 * 365 / 1e9
}

// NodeYearStat records the node population split at one year.
type NodeYearStat struct {
	Year      int
	ChainGB   float64
	FullNodes int
	FullFrac  float64
}

// NodeCostResult reports the full-node erosion trajectory.
type NodeCostResult struct {
	Years []NodeYearStat
	// FullFracStart and FullFracEnd are the initial and final full-node
	// fractions.
	FullFracStart, FullFracEnd float64
}

// RunNodeCostModel draws per-node disk budgets and reports how the full-node
// fraction declines as the chain outgrows them. "Network size" counting
// light clients stays constant while the validating core shrinks.
func RunNodeCostModel(g *sim.RNG, p NodeCostParams) (*NodeCostResult, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	budgets := make([]float64, p.Nodes)
	mu := math.Log(p.DiskGBMedian)
	for i := range budgets {
		budgets[i] = math.Exp(mu + diskGBSigma*g.NormFloat64())
	}
	res := &NodeCostResult{}
	growth := p.ChainGrowthGBPerYear()
	for year := 0; year <= p.Years; year++ {
		chain := p.InitialChainGB + growth*float64(year)
		full := 0
		for _, b := range budgets {
			if b >= chain {
				full++
			}
		}
		stat := NodeYearStat{
			Year:      year,
			ChainGB:   chain,
			FullNodes: full,
			FullFrac:  float64(full) / float64(p.Nodes),
		}
		res.Years = append(res.Years, stat)
	}
	res.FullFracStart = res.Years[0].FullFrac
	res.FullFracEnd = res.Years[len(res.Years)-1].FullFrac
	return res, nil
}
