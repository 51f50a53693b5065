package pow

import (
	"errors"
	"math"

	"repro/internal/sim"
)

// DoubleSpendProbability returns Nakamoto's closed-form probability (Bitcoin
// paper, section 11) that an attacker with share q of the hashrate
// eventually overtakes a transaction buried under z confirmations.
func DoubleSpendProbability(q float64, z int) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 0.5 {
		return 1
	}
	if z <= 0 {
		return 1
	}
	p := 1 - q
	lambda := float64(z) * q / p
	var sum float64
	// P = 1 - sum_{k=0}^{z} Poisson(k; lambda) * (1 - (q/p)^(z-k))
	poisson := math.Exp(-lambda)
	for k := 0; k <= z; k++ {
		if k > 0 {
			poisson *= lambda / float64(k)
		}
		sum += poisson * (1 - math.Pow(q/p, float64(z-k)))
	}
	pr := 1 - sum
	if pr < 0 {
		return 0
	}
	if pr > 1 {
		return 1
	}
	return pr
}

// DoubleSpendProbabilityExact returns the exact double-spend success
// probability under the block-race model (Rosenfeld 2014): the attacker's
// progress while the merchant waits for z honest blocks is negative
// binomial (not Nakamoto's Poisson approximation), and the attacker must
// overtake the honest chain strictly (a tie is not a win, unlike the
// (q/p)^0 = 1 term in Nakamoto's formula). SimulateDoubleSpend converges to
// this value.
func DoubleSpendProbabilityExact(q float64, z int) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 0.5 {
		return 1
	}
	if z <= 0 {
		return 1
	}
	p := 1 - q
	// P(k attacker blocks before z honest) = C(k+z-1, k) p^z q^k.
	nb := math.Pow(p, float64(z)) // k = 0 term
	var sum, tail float64
	tail = 1
	for k := 0; ; k++ {
		if k > 0 {
			nb *= q * float64(k+z-1) / float64(k)
		}
		tail -= nb
		deficit := z - k + 1
		win := 1.0
		if deficit > 0 {
			win = math.Pow(q/p, float64(deficit))
		}
		sum += nb * win
		if k > z && tail < 1e-12 {
			break
		}
		if k > z+2000 {
			break
		}
	}
	// Remaining tail (k very large) wins with certainty.
	if tail > 0 {
		sum += tail
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// SimulateDoubleSpend Monte-Carlos the same race: while the merchant waits
// for z honest confirmations the attacker mines privately (starting one
// block behind, as in Nakamoto's analysis); afterwards the attacker
// continues until it overtakes (success) or falls hopelessly behind
// (failure). It returns the empirical success probability.
func SimulateDoubleSpend(g *sim.RNG, q float64, z, trials int) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, errors.New("pow: attacker share must be in (0,1)")
	}
	if z < 0 {
		return 0, errors.New("pow: confirmations must be non-negative")
	}
	if trials <= 0 {
		trials = 10_000
	}
	// q is in (0,1) from here on, so g.Float64() < q draws as g.Bool(q)
	// does, and unlike Bool it inlines.
	const giveUpDeficit = 60 // P(recovery) < (q/p)^60: negligible
	wins := 0
	for t := 0; t < trials; t++ {
		// Phase 1: merchant waits for z honest blocks; attacker mines in
		// parallel. Count attacker blocks found while z honest blocks are
		// found: each next block is the attacker's with probability q.
		attacker := 0
		honest := 0
		for honest < z {
			if g.Float64() < q {
				attacker++
			} else {
				honest++
			}
		}
		// Attacker needs a strictly longer chain: deficit of honest chain
		// over attacker chain plus one.
		deficit := honest - attacker + 1
		// Phase 2: gambler's ruin.
		for deficit > 0 && deficit < giveUpDeficit {
			if g.Float64() < q {
				deficit--
			} else {
				deficit++
			}
		}
		if deficit <= 0 {
			wins++
		}
	}
	return float64(wins) / float64(trials), nil
}

// ConfirmationsForRisk returns the minimum confirmations z such that the
// double-spend probability falls below risk for an attacker share q, capped
// at maxZ (returns maxZ+1 if never reached — e.g. q >= 0.5).
func ConfirmationsForRisk(q, risk float64, maxZ int) int {
	for z := 1; z <= maxZ; z++ {
		if DoubleSpendProbability(q, z) < risk {
			return z
		}
	}
	return maxZ + 1
}
