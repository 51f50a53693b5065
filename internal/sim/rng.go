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
//
// An RNG owns math/rand's additive lagged Fibonacci state (alfg) rather
// than reaching it through rand.Source: Float64 and Bool, the draws on
// the simulators' hot paths, step the generator directly instead of making
// an interface call per draw. The state is seeded through the standard
// library's own source, so every stream is math/rand's bit for bit
// (TestRNGMatchesMathRand).
type RNG struct {
	src *alfg
	r   *rand.Rand // over src: the other draws share its state
}

// Stream returns the named random stream, creating it on first use. Streams
// are stable across runs for a fixed master seed.
func (s *Sim) Stream(name string) *RNG {
	if g, ok := s.streams[name]; ok {
		return g
	}
	g := NewRNG(DeriveSeed(s.seed, name))
	s.streams[name] = g
	return g
}

// NewRNG returns a stand-alone deterministic stream; useful in tests and in
// analytic code that runs outside a Sim.
func NewRNG(seed int64) *RNG {
	src := new(alfg)
	src.Seed(seed)
	return &RNG{src: src, r: rand.New(src)}
}

// alfg's register length and tap, and the mask Int63 applies: math/rand's
// rngLen, rngTap and rngMask.
const (
	alfgLen  = 607
	alfgTap  = 273
	alfgMask = 1<<63 - 1
)

// alfg is math/rand's generator (rngSource): an additive lagged Fibonacci
// generator x[n] = x[n-273] + x[n-607] over a 607-word register.
type alfg struct {
	tap, feed int
	vec       [alfgLen]int64
}

// Seed puts g in the state rand.NewSource(seed) starts from without
// copying the standard library's seeding table: it records the first
// alfgLen outputs of a stdlib source, which are the register after one
// full turn (each step rewrites the word at feed, and a turn visits every
// word once), then undoes that turn step by step in reverse.
func (g *alfg) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	g.tap, g.feed = 0, alfgLen-alfgTap
	for range alfgLen {
		g.step()
		g.vec[g.feed] = int64(std.Uint64())
	}
	// A turn brings tap and feed back to where it began, which is where
	// its last step stood.
	for range alfgLen {
		g.vec[g.feed] -= g.vec[g.tap]
		g.tap = (g.tap + 1) % alfgLen
		g.feed = (g.feed + 1) % alfgLen
	}
}

// step moves tap and feed one word back, as every draw does first.
func (g *alfg) step() {
	g.tap--
	if g.tap < 0 {
		g.tap += alfgLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += alfgLen
	}
}

// Uint64 returns the next 64-bit output.
func (g *alfg) Uint64() uint64 {
	g.step()
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared.
func (g *alfg) Int63() int64 { return int64(g.Uint64() & alfgMask) }

// DeriveSeed returns the seed of the stream name under master seed: a
// kernel seeded master builds its Stream(name) from NewRNG(DeriveSeed(master,
// name)).
func DeriveSeed(master int64, name string) int64 {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(master))
	h.Write(buf[:])
	h.Write([]byte(name))
	sum := h.Sum(nil)
	return int64(binary.BigEndian.Uint64(sum[:8]))
}

// Float64 returns a uniform value in [0, 1): rand.Rand.Float64's formula,
// retry included, on the owned generator.
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

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
	return g.Float64() < p
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
	scale := 1 + f*(2*g.Float64()-1)
	return time.Duration(float64(d) * scale)
}

// Rand exposes the underlying math/rand generator for adapters (e.g.
// rand.Zipf) that require the concrete type.
func (g *RNG) Rand() *rand.Rand { return g.r }
