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

// PoissonStream emits events with exponentially distributed inter-arrival
// times (a Poisson process) until stopped.
type PoissonStream struct {
	sim     *sim.Sim
	rng     *sim.RNG
	mean    time.Duration
	fn      func(seq int)
	seq     int
	stopped bool
}

// StartPoisson begins a Poisson process with the given rate in events per
// second, invoking fn(seq) for each arrival. It returns an error for
// non-positive rates or a nil callback.
func StartPoisson(s *sim.Sim, stream string, rate float64, fn func(seq int)) (*PoissonStream, error) {
	if rate <= 0 {
		return nil, errors.New("workload: rate must be positive")
	}
	if fn == nil {
		return nil, errors.New("workload: callback is nil")
	}
	p := &PoissonStream{
		sim:  s,
		rng:  s.Stream(stream),
		mean: time.Duration(float64(time.Second) / rate),
		fn:   fn,
	}
	p.next()
	return p, nil
}

func (p *PoissonStream) next() {
	p.sim.After(p.rng.ExpDuration(p.mean), func() {
		if p.stopped {
			return
		}
		seq := p.seq
		p.seq++
		p.fn(seq)
		if !p.stopped {
			p.next()
		}
	})
}

// Stop halts the stream; no further arrivals fire.
func (p *PoissonStream) Stop() { p.stopped = true }

// Count returns the number of arrivals emitted so far.
func (p *PoissonStream) Count() int { return p.seq }

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

// TxSource produces transactions at a Poisson rate with a fixed size
// distribution (uniform between MinSize and MaxSize).
type TxSource struct {
	stream  *PoissonStream
	rng     *sim.RNG
	minSize int
	maxSize int
}

// StartTxSource emits transactions at rate per second with sizes uniform in
// [minSize, maxSize] bytes, calling submit for each.
func StartTxSource(s *sim.Sim, rate float64, minSize, maxSize int, submit func(Tx)) (*TxSource, error) {
	if minSize <= 0 || maxSize < minSize {
		return nil, errors.New("workload: invalid tx size range")
	}
	if submit == nil {
		return nil, errors.New("workload: submit callback is nil")
	}
	src := &TxSource{
		rng:     s.Stream("workload.txsize"),
		minSize: minSize,
		maxSize: maxSize,
	}
	stream, err := StartPoisson(s, "workload.txarrival", rate, func(seq int) {
		submit(Tx{
			ID:   seq,
			Size: src.minSize + src.rng.Intn(src.maxSize-src.minSize+1),
			At:   s.Now(),
		})
	})
	if err != nil {
		return nil, err
	}
	src.stream = stream
	return src, nil
}

// Stop halts transaction production.
func (t *TxSource) Stop() { t.stream.Stop() }

// Count returns the number of transactions produced.
func (t *TxSource) Count() int { return t.stream.Count() }
