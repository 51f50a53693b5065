package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"time"
)

// RNG is a deterministic random stream. Every stream is derived from the
// simulator's master seed and a stream name, so adding a new consumer of
// randomness does not perturb existing streams (a common source of accidental
// irreproducibility in simulators that share one generator).
type RNG struct {
	r *rand.Rand
}

// Stream returns the named random stream, creating it on first use. Streams
// are stable across runs for a fixed master seed.
func (s *Sim) Stream(name string) *RNG {
	if g, ok := s.streams[name]; ok {
		return g
	}
	g := NewRNG(deriveSeed(s.seed, name))
	s.streams[name] = g
	return g
}

// NewRNG returns a stand-alone deterministic stream; useful in tests and in
// analytic code that runs outside a Sim.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

func deriveSeed(master int64, name string) int64 {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(master))
	h.Write(buf[:])
	h.Write([]byte(name))
	sum := h.Sum(nil)
	return int64(binary.BigEndian.Uint64(sum[:8]))
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It returns 0 when n <= 0 rather
// than panicking, so callers can feed it workload-derived counts safely.
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return g.r.Intn(n)
}

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential variate with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	if n <= 0 {
		return nil
	}
	return g.r.Perm(n)
}

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	if n > 1 {
		g.r.Shuffle(n, swap)
	}
}

// Bool returns true with probability p (clamped to [0, 1]).
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// ExpDuration returns an exponentially distributed duration with the given
// mean; it is the inter-arrival distribution of a Poisson process.
func (g *RNG) ExpDuration(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := g.r.ExpFloat64() * float64(mean)
	if d > math.MaxInt64/2 {
		d = math.MaxInt64 / 2
	}
	return time.Duration(d)
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f]; f is clamped to
// [0, 1]. It models symmetric link-latency noise.
func (g *RNG) Jitter(d time.Duration, f float64) time.Duration {
	if f <= 0 || d <= 0 {
		return d
	}
	if f > 1 {
		f = 1
	}
	scale := 1 + f*(2*g.r.Float64()-1)
	return time.Duration(float64(d) * scale)
}

// Rand exposes the underlying math/rand generator for adapters (e.g.
// rand.Zipf) that require the concrete type.
func (g *RNG) Rand() *rand.Rand { return g.r }
