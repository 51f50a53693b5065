// Package randdist provides the two random distributions the simulations
// draw beyond the kernel RNG's own: Pareto (heavy-tailed session times) and
// Zipf (content popularity). Both draw from a sim.RNG stream so experiments
// stay deterministic. Poisson inter-arrival gaps come from
// sim.RNG.ExpDuration.
package randdist

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Pareto returns a sample from a Pareto distribution with scale xm (minimum
// value) and shape alpha. Heavy-tailed session lengths in P2P measurement
// studies are commonly modelled with alpha in (1, 2).
func Pareto(g *sim.RNG, xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return 0
	}
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf generates ranks in [1, n] with probability proportional to
// 1/rank^s — the canonical model for content popularity in file-sharing
// overlays.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf constructs a Zipf sampler over n ranks with exponent s (> 1 per
// math/rand's requirement; values near 1 approximate measured catalogues).
// It returns nil if the parameters are out of range.
func NewZipf(g *sim.RNG, s float64, n int) *Zipf {
	if n <= 0 || s <= 1 {
		return nil
	}
	z := rand.NewZipf(g.Rand(), s, 1, uint64(n-1))
	if z == nil {
		return nil
	}
	return &Zipf{z: z}
}

// Rank returns a 1-based rank; 1 is the most popular item.
func (z *Zipf) Rank() int {
	if z == nil {
		return 1
	}
	return int(z.z.Uint64()) + 1
}
