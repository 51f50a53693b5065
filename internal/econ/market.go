// Package econ models the economic dynamics the paper leans on: market
// concentration from preferential attachment (the CDN/cloud numbers of the
// introduction), the mining arms race that centralizes hashpower into a few
// pools and prices out commodity hardware, the equilibrium energy
// consumption of proof-of-work, and the node-resource growth that erodes the
// full-node population.
package econ

import (
	"errors"
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// MarketConfig parameterizes a preferential-attachment market-share model:
// customers arrive one by one and choose a provider with probability
// proportional to fitness × (installed base + k). This is exactly the
// "natural effect of market dynamics such as preferential attachment" the
// paper cites to explain CDN/cloud concentration.
type MarketConfig struct {
	// Providers is the number of competing providers.
	Providers int
	// Customers is the number of arriving customers.
	Customers int
	// FitnessSigma is the lognormal spread of provider quality
	// (0 = identical providers; larger = stronger winner-take-most).
	FitnessSigma float64
	// Exploration is the probability a customer ignores installed base
	// and picks on fitness alone (idiosyncratic needs, regional pricing).
	// It tempers lock-in: 0 converges to near-monopoly, higher values
	// yield the oligopoly profile real CDN/cloud markets show.
	Exploration float64
}

// smoothing is the additive constant k giving empty providers a chance.
const smoothing = 1

// MarketResult reports the final share distribution.
type MarketResult struct {
	// Shares is each provider's customer share, descending.
	Shares []float64
	// Top1, Top3, Top5 are combined shares of the largest providers.
	Top1, Top3, Top5 float64
	// HHI is the Herfindahl–Hirschman index; Gini the Gini coefficient.
	HHI, Gini float64
}

// RunMarket simulates the arrival process and returns the concentration
// profile.
func RunMarket(g *sim.RNG, cfg MarketConfig) (*MarketResult, error) {
	if cfg.Providers < 2 {
		return nil, errors.New("econ: need at least two providers")
	}
	if cfg.Customers < cfg.Providers {
		return nil, errors.New("econ: need at least as many customers as providers")
	}
	fitness := make([]float64, cfg.Providers)
	for i := range fitness {
		fitness[i] = math.Exp(cfg.FitnessSigma * g.NormFloat64())
	}
	customers := make([]float64, cfg.Providers)
	weights := make([]float64, cfg.Providers)
	for c := 0; c < cfg.Customers; c++ {
		explore := g.Bool(cfg.Exploration)
		var total float64
		for i := range weights {
			if explore {
				weights[i] = fitness[i]
			} else {
				weights[i] = fitness[i] * (customers[i] + smoothing)
			}
			total += weights[i]
		}
		target := g.Float64() * total
		var cum float64
		pick := cfg.Providers - 1
		for i, w := range weights {
			cum += w
			if target < cum {
				pick = i
				break
			}
		}
		customers[pick]++
	}
	shares := make([]float64, cfg.Providers)
	for i, c := range customers {
		shares[i] = c / float64(cfg.Customers)
	}
	// Sort descending.
	for i := 1; i < len(shares); i++ {
		for j := i; j > 0 && shares[j] > shares[j-1]; j-- {
			shares[j], shares[j-1] = shares[j-1], shares[j]
		}
	}
	res := &MarketResult{
		Shares: shares,
		Top1:   metrics.TopShare(shares, 1),
		Top3:   metrics.TopShare(shares, 3),
		Top5:   metrics.TopShare(shares, 5),
		HHI:    metrics.HHI(shares),
		Gini:   metrics.Gini(shares),
	}
	return res, nil
}
