package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestRNGMatchesMathRand is the oracle for RNG's owned generator: a stream
// must be math/rand's bit for bit, so that every pinned byte drawn from it
// stays put. It replays an interleaved schedule of every RNG method, and of
// a rand.Zipf over Rand(), against the same calls on
// rand.New(rand.NewSource(seed)). It fails if a Go release changes
// math/rand's source, or if the owned copy drifts from it.
func TestRNGMatchesMathRand(t *testing.T) {
	const draws = 10_000
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40, math.MaxInt64} {
		g := NewRNG(seed)
		ref := rand.New(rand.NewSource(seed))
		zg := rand.NewZipf(g.Rand(), 1.2, 1, 1000)
		zref := rand.NewZipf(ref, 1.2, 1, 1000)
		refBool := func(p float64) bool {
			if p <= 0 {
				return false
			}
			if p >= 1 {
				return true
			}
			return ref.Float64() < p
		}
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < draws; i++ {
			op := ops.Intn(13)
			fail := func(what string, got, want any) {
				t.Fatalf("seed %d, draw %d: %s = %v, math/rand gives %v", seed, i, what, got, want)
			}
			switch op {
			case 0:
				if got, want := g.Float64(), ref.Float64(); got != want {
					fail("Float64", got, want)
				}
			case 1:
				n := 1 + ops.Intn(1<<ops.Intn(40))
				if got, want := g.Intn(n), ref.Intn(n); got != want {
					fail("Intn", got, want)
				}
			case 2:
				if got, want := g.Uint64(), ref.Uint64(); got != want {
					fail("Uint64", got, want)
				}
			case 3:
				if got, want := g.NormFloat64(), ref.NormFloat64(); got != want {
					fail("NormFloat64", got, want)
				}
			case 4:
				n := 1 + ops.Intn(20)
				if got, want := g.Perm(n), ref.Perm(n); !slices.Equal(got, want) {
					fail("Perm", got, want)
				}
			case 5:
				a, b := []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2, 3, 4, 5, 6, 7}
				g.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				ref.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				if !slices.Equal(a, b) {
					fail("Shuffle", a, b)
				}
			case 6:
				p := ops.Float64()
				if got, want := g.Bool(p), refBool(p); got != want {
					fail("Bool", got, want)
				}
			case 7:
				// The edges: 0 and 1 draw nothing, NaN draws once and is
				// false. The next draw shows whether one was consumed.
				p := []float64{0, 1, -0.5, 2, math.NaN()}[ops.Intn(5)]
				if got, want := g.Bool(p), refBool(p); got != want {
					fail("Bool edge", got, want)
				}
				if got, want := g.Uint64(), ref.Uint64(); got != want {
					fail("draw after Bool edge", got, want)
				}
			case 8:
				mean := time.Duration(1 + ops.Intn(1e9))
				want := time.Duration(ref.ExpFloat64() * float64(mean))
				if got := g.ExpDuration(mean); got != want {
					fail("ExpDuration", got, want)
				}
			case 9:
				d, f := time.Duration(1+ops.Intn(1e9)), ops.Float64()
				want := time.Duration(float64(d) * (1 + f*(2*ref.Float64()-1)))
				if got := g.Jitter(d, f); got != want {
					fail("Jitter", got, want)
				}
			case 10:
				if got, want := zg.Uint64(), zref.Uint64(); got != want {
					fail("Zipf over Rand()", got, want)
				}
			case 11:
				if got, want := g.Rand().Int63(), ref.Int63(); got != want {
					fail("Rand().Int63", got, want)
				}
			case 12:
				if got, want := g.Rand().ExpFloat64(), ref.ExpFloat64(); got != want {
					fail("Rand().ExpFloat64", got, want)
				}
			}
		}
	}
}

var sinkBool bool

// BenchmarkRNGBool measures one Bool draw at an interior probability, the
// draw the PoW races make per block.
func BenchmarkRNGBool(b *testing.B) {
	g := NewRNG(1)
	for b.Loop() {
		sinkBool = g.Bool(0.3)
	}
}
