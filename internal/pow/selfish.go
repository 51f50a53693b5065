package pow

import (
	"errors"

	"repro/internal/sim"
)

// SelfishOutcome reports a selfish-mining run.
type SelfishOutcome struct {
	// Alpha is the selfish pool's hashrate share; Gamma the fraction of
	// honest miners that mine on the selfish branch during a tie.
	Alpha, Gamma float64
	// PoolBlocks and HonestBlocks count best-chain blocks won by each side.
	PoolBlocks, HonestBlocks int
	// RevenueShare is PoolBlocks / (PoolBlocks + HonestBlocks).
	RevenueShare float64
	// FairShare is Alpha: what honest mining would have earned.
	FairShare float64
}

// Profitable reports whether selfish mining beat honest mining.
func (o SelfishOutcome) Profitable() bool { return o.RevenueShare > o.FairShare }

// SimulateSelfishMining runs the Eyal–Sirer selfish-mining strategy as a
// discrete block-discovery race for the given number of found blocks.
//
// State machine (Eyal & Sirer 2014, Algorithm 1): the pool withholds found
// blocks, publishing just enough to orphan honest work; gamma is the share
// of honest hashpower that mines on the pool's branch during a tie.
func SimulateSelfishMining(g *sim.RNG, alpha, gamma float64, blocks int) (SelfishOutcome, error) {
	if alpha <= 0 || alpha >= 1 {
		return SelfishOutcome{}, errors.New("pow: alpha must be in (0,1)")
	}
	if gamma < 0 || gamma > 1 {
		return SelfishOutcome{}, errors.New("pow: gamma must be in [0,1]")
	}
	if blocks <= 0 {
		blocks = 100_000
	}
	var (
		lead      int  // private chain advantage
		tie       bool // branches of equal length competing
		pool, hon int
	)
	for i := 0; i < blocks; i++ {
		if g.Float64() < alpha { // g.Bool(alpha) for alpha in (0,1), but inlined
			// Pool finds a block.
			if tie {
				// Pool extends its branch and publishes: wins both blocks.
				pool += 2
				tie = false
				lead = 0
				continue
			}
			lead++
			continue
		}
		// Honest network finds a block.
		switch {
		case tie:
			if g.Bool(gamma) {
				// Honest block extends the pool branch: pool keeps its
				// published block, honest miner gets the new one.
				pool++
				hon++
			} else {
				// Honest branch wins both.
				hon += 2
			}
			tie = false
			lead = 0
		case lead == 0:
			hon++
		case lead == 1:
			// Pool publishes its single private block: a tie race begins.
			tie = true
			lead = 0
		case lead == 2:
			// Pool publishes everything and takes both blocks; honest
			// block is orphaned.
			pool += 2
			lead = 0
		default:
			// Pool publishes one block (it stays ahead).
			pool++
			lead--
		}
	}
	// Settle any private lead at the end.
	pool += lead
	total := pool + hon
	out := SelfishOutcome{
		Alpha:        alpha,
		Gamma:        gamma,
		PoolBlocks:   pool,
		HonestBlocks: hon,
		FairShare:    alpha,
	}
	if total > 0 {
		out.RevenueShare = float64(pool) / float64(total)
	}
	return out, nil
}

// SelfishRevenueClosedForm returns the pool's expected revenue share from
// Eyal & Sirer's equation (8).
func SelfishRevenueClosedForm(alpha, gamma float64) float64 {
	a, g := alpha, gamma
	num := a*(1-a)*(1-a)*(4*a+g*(1-2*a)) - a*a*a
	den := 1 - a*(1+(2-a)*a)
	if den == 0 {
		return 0
	}
	return num / den
}

// SelfishThreshold returns the minimum profitable pool size for a given
// gamma: (1-gamma)/(3-2*gamma). At gamma=0 this is 1/3 — the paper's
// headline "majority is not enough" number.
func SelfishThreshold(gamma float64) float64 {
	return (1 - gamma) / (3 - 2*gamma)
}
