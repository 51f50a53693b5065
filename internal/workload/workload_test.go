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
	if err := StartPoisson(s, s.Stream("test"), 10, 1000*time.Second, func(seq int) { count++ }); err != nil {
		t.Fatalf("StartPoisson: %v", err)
	}
	if count != 1 {
		t.Fatalf("%d arrivals at the call instant, want the first one", count)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Expect ~10000 events; Poisson sd is 100, allow 5 sigma.
	if math.Abs(float64(count)-10000) > 500 {
		t.Fatalf("count = %d, want ~10000", count)
	}
}

// TestPoissonSeqMonotone also pins the draw order the substrates' bytes
// depend on: the callback runs before the next gap is drawn from the stream
// it may share, and the gaps are the stream's ExpDuration draws.
func TestPoissonSeqMonotone(t *testing.T) {
	s := sim.New(sim.WithSeed(5))
	g, twin := s.Stream("test"), sim.New(sim.WithSeed(5)).Stream("test")
	last, at := -1, time.Duration(0)
	err := StartPoisson(s, g, 100, time.Second, func(seq int) {
		if seq != last+1 {
			t.Fatalf("seq %d after %d", seq, last)
		}
		last = seq
		if s.Now() != at {
			t.Fatalf("arrival %d at %v, the stream says %v", seq, s.Now(), at)
		}
		if g.Uint64() != twin.Uint64() {
			t.Fatalf("arrival %d: the gap was drawn before the callback ran", seq)
		}
		at += twin.ExpDuration(10 * time.Millisecond)
	})
	if err != nil {
		t.Fatalf("StartPoisson: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if last < 50 {
		t.Fatalf("%d arrivals in 1s at rate 100/s", last+1)
	}
}

// TestPoissonStop: the horizon stops the process — nothing arrives at or
// after it, no event is left behind, and a horizon already reached at the
// call admits not even the first arrival.
func TestPoissonStop(t *testing.T) {
	s := sim.New(sim.WithSeed(5))
	const until = 50 * time.Millisecond
	count := 0
	err := StartPoisson(s, s.Stream("test"), 100, until, func(seq int) {
		count++
		if s.Now() >= until {
			t.Fatalf("arrival %d at %v, horizon %v", seq, s.Now(), until)
		}
	})
	if err != nil {
		t.Fatalf("StartPoisson: %v", err)
	}
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count == 0 || s.Pending() != 0 {
		t.Fatalf("%d arrivals, %d events pending past the horizon", count, s.Pending())
	}
	if err := StartPoisson(s, s.Stream("test"), 100, until, func(int) { t.Fatal("arrival past the horizon") }); err != nil {
		t.Fatalf("StartPoisson: %v", err)
	}
}

func TestPoissonValidation(t *testing.T) {
	s := sim.New()
	if err := StartPoisson(s, s.Stream("t"), 0, time.Second, func(int) {}); err == nil {
		t.Fatal("rate 0 should error")
	}
	if err := StartPoisson(s, s.Stream("t"), 1, time.Second, nil); err == nil {
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
	if err := StartTxSource(s, 50, 250, 500, 100*time.Second, func(tx Tx) { txs = append(txs, tx) }); err != nil {
		t.Fatalf("StartTxSource: %v", err)
	}
	if err := s.RunUntil(200 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(txs) < 4000 || len(txs) > 6000 {
		t.Fatalf("tx count = %d, want ~5000", len(txs))
	}
	for i, tx := range txs {
		if tx.Size < 250 || tx.Size > 500 {
			t.Fatalf("tx size %d outside [250,500]", tx.Size)
		}
		if tx.ID != i || tx.At >= 100*time.Second {
			t.Fatalf("tx %d has id %d, offered at %v (horizon 100s)", i, tx.ID, tx.At)
		}
	}
}

func TestTxSourceValidation(t *testing.T) {
	s := sim.New()
	if err := StartTxSource(s, 1, 0, 10, time.Second, func(Tx) {}); err == nil {
		t.Fatal("bad size range should error")
	}
	if err := StartTxSource(s, 1, 10, 20, time.Second, nil); err == nil {
		t.Fatal("nil submit should error")
	}
	if err := StartTxSource(s, 0, 10, 20, time.Second, func(Tx) {}); err == nil {
		t.Fatal("zero rate should error")
	}
}
