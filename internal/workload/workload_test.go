package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPoissonRate(t *testing.T) {
	s := sim.New(sim.WithSeed(11))
	count := 0
	stream, err := StartPoisson(s, "test", 10, func(seq int) { count++ })
	if err != nil {
		t.Fatalf("StartPoisson: %v", err)
	}
	if err := s.RunUntil(1000 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Expect ~10000 events; Poisson sd is 100, allow 5 sigma.
	if math.Abs(float64(count)-10000) > 500 {
		t.Fatalf("count = %d, want ~10000", count)
	}
	if stream.Count() != count {
		t.Fatalf("Count() = %d, want %d", stream.Count(), count)
	}
}

func TestPoissonSeqMonotone(t *testing.T) {
	s := sim.New(sim.WithSeed(5))
	last := -1
	_, err := StartPoisson(s, "test", 100, func(seq int) {
		if seq != last+1 {
			t.Fatalf("seq %d after %d", seq, last)
		}
		last = seq
	})
	if err != nil {
		t.Fatalf("StartPoisson: %v", err)
	}
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if last < 0 {
		t.Fatal("no arrivals in 1s at rate 100/s")
	}
}

func TestPoissonStop(t *testing.T) {
	s := sim.New(sim.WithSeed(5))
	var stream *PoissonStream
	count := 0
	stream, err := StartPoisson(s, "test", 100, func(seq int) {
		count++
		if count == 5 {
			stream.Stop()
		}
	})
	if err != nil {
		t.Fatalf("StartPoisson: %v", err)
	}
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 5 {
		t.Fatalf("count = %d after Stop at 5", count)
	}
}

func TestPoissonValidation(t *testing.T) {
	s := sim.New()
	if _, err := StartPoisson(s, "t", 0, func(int) {}); err == nil {
		t.Fatal("rate 0 should error")
	}
	if _, err := StartPoisson(s, "t", 1, nil); err == nil {
		t.Fatal("nil callback should error")
	}
}

func TestCatalogue(t *testing.T) {
	g := sim.NewRNG(3)
	c, err := NewCatalogue(g, 500, 1.1, 100, 200)
	if err != nil {
		t.Fatalf("NewCatalogue: %v", err)
	}
	if len(c.sizes) != 500 {
		t.Fatalf("%d items, want 500", len(c.sizes))
	}
	counts := make([]int, 500)
	for i := 0; i < 50000; i++ {
		idx := c.Pick()
		if idx < 0 || idx >= 500 {
			t.Fatalf("Pick out of range: %d", idx)
		}
		counts[idx]++
		size := c.sizes[idx]
		if size < 100 || size > 200 {
			t.Fatalf("Size(%d) = %d outside [100,200]", idx, size)
		}
	}
	if counts[0] <= counts[100] {
		t.Fatalf("popularity not skewed: rank0=%d rank100=%d", counts[0], counts[100])
	}
}

func TestCatalogueValidation(t *testing.T) {
	g := sim.NewRNG(3)
	if _, err := NewCatalogue(g, 0, 1.1, 1, 2); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := NewCatalogue(g, 10, 1.1, 0, 2); err == nil {
		t.Fatal("minSize=0 should error")
	}
	if _, err := NewCatalogue(g, 10, 0.9, 1, 2); err == nil {
		t.Fatal("zipf s<=1 should error")
	}
}

func TestTxSource(t *testing.T) {
	s := sim.New(sim.WithSeed(17))
	var txs []Tx
	src, err := StartTxSource(s, 50, 250, 500, func(tx Tx) { txs = append(txs, tx) })
	if err != nil {
		t.Fatalf("StartTxSource: %v", err)
	}
	if err := s.RunUntil(100 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(txs) < 4000 || len(txs) > 6000 {
		t.Fatalf("tx count = %d, want ~5000", len(txs))
	}
	for _, tx := range txs[:100] {
		if tx.Size < 250 || tx.Size > 500 {
			t.Fatalf("tx size %d outside [250,500]", tx.Size)
		}
	}
	src.Stop()
	n := len(txs)
	if err := s.RunUntil(200 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(txs) != n {
		t.Fatal("transactions emitted after Stop")
	}
}

func TestTxSourceValidation(t *testing.T) {
	s := sim.New()
	if _, err := StartTxSource(s, 1, 0, 10, func(Tx) {}); err == nil {
		t.Fatal("bad size range should error")
	}
	if _, err := StartTxSource(s, 1, 10, 20, nil); err == nil {
		t.Fatal("nil submit should error")
	}
	if _, err := StartTxSource(s, 0, 10, 20, func(Tx) {}); err == nil {
		t.Fatal("zero rate should error")
	}
}
