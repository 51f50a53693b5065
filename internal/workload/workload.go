// Package workload generates the load offered to simulated systems: Poisson
// request/transaction arrivals and Zipf-popular content catalogues. Both the
// overlay experiments (lookups for popular keys) and the blockchain
// experiments (transaction submission) draw from here.
package workload

import (
	"errors"
	"time"

	"repro/internal/randdist"
	"repro/internal/sim"
)

// StartPoisson offers an open-loop Poisson load on s: one arrival at the
// call instant, then one after each exponentially distributed gap of mean
// 1/rate seconds drawn from g, for as long as the clock reads before until.
// fn(seq) runs before the gap to the next arrival is drawn, so a callback
// that draws from g itself interleaves its draws with the gaps. It returns
// an error for non-positive rates or a nil callback.
func StartPoisson(s *sim.Sim, g *sim.RNG, rate float64, until time.Duration, fn func(seq int)) error {
	if rate <= 0 {
		return errors.New("workload: rate must be positive")
	}
	if fn == nil {
		return errors.New("workload: callback is nil")
	}
	mean := time.Duration(float64(time.Second) / rate)
	seq := 0
	var arrive func()
	arrive = func() {
		if s.Now() >= until {
			return
		}
		fn(seq)
		seq++
		s.After(g.ExpDuration(mean), arrive)
	}
	arrive()
	return nil
}

// Catalogue is a set of content items with Zipf-distributed popularity, the
// canonical model for file-sharing workloads.
type Catalogue struct {
	sizes []int
	zipf  *randdist.Zipf
	rng   *sim.RNG
}

// NewCatalogue builds a catalogue of n items with popularity exponent s
// (> 1) and item sizes uniform in [minSize, maxSize] bytes.
func NewCatalogue(g *sim.RNG, n int, s float64, minSize, maxSize int) (*Catalogue, error) {
	if n <= 0 {
		return nil, errors.New("workload: catalogue size must be positive")
	}
	if minSize <= 0 || maxSize < minSize {
		return nil, errors.New("workload: invalid size range")
	}
	z := randdist.NewZipf(g, s, n)
	if z == nil {
		return nil, errors.New("workload: invalid zipf exponent (must be > 1)")
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = minSize + g.Intn(maxSize-minSize+1)
	}
	return &Catalogue{sizes: sizes, zipf: z, rng: g}, nil
}

// Pick returns a popularity-weighted item index in [0, n).
func (c *Catalogue) Pick() int { return c.zipf.Rank() - 1 }

// Tx is an abstract transaction offered to a ledger system.
type Tx struct {
	ID   int
	Size int // bytes on the wire and in a block
	At   time.Duration
}

// StartTxSource offers transactions at a Poisson rate per second until the
// clock reads until, with sizes uniform in [minSize, maxSize] bytes, calling
// submit for each.
func StartTxSource(s *sim.Sim, rate float64, minSize, maxSize int, until time.Duration, submit func(Tx)) error {
	if minSize <= 0 || maxSize < minSize {
		return errors.New("workload: invalid tx size range")
	}
	if submit == nil {
		return errors.New("workload: submit callback is nil")
	}
	sizes := s.Stream("workload.txsize")
	return StartPoisson(s, s.Stream("workload.txarrival"), rate, until, func(seq int) {
		submit(Tx{ID: seq, Size: minSize + sizes.Intn(maxSize-minSize+1), At: s.Now()})
	})
}
