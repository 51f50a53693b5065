package randdist

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func rng() *sim.RNG { return sim.NewRNG(42) }

func TestParetoProperties(t *testing.T) {
	g := rng()
	const n = 50000
	var sum float64
	minSeen := math.Inf(1)
	for i := 0; i < n; i++ {
		x := Pareto(g, 2.0, 3.0)
		if x < 2.0 {
			t.Fatalf("Pareto sample %v below scale 2.0", x)
		}
		if x < minSeen {
			minSeen = x
		}
		sum += x
	}
	// E[X] = alpha*xm/(alpha-1) = 3 for xm=2, alpha=3.
	mean := sum / n
	if math.Abs(mean-3.0) > 0.15 {
		t.Fatalf("Pareto mean = %v, want ~3", mean)
	}
	if minSeen > 2.2 {
		t.Fatalf("Pareto min = %v, expected values near scale", minSeen)
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A heavy-tail (alpha=1.1) distribution should produce a max far above
	// its median over many draws.
	g := rng()
	var max, count5x float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := Pareto(g, 1, 1.1)
		if x > max {
			max = x
		}
		if x > 5 {
			count5x++
		}
	}
	if max < 100 {
		t.Fatalf("heavy tail max = %v, expected extreme values", max)
	}
	// P(X>5) = 5^-1.1 ~ 0.17
	frac := count5x / n
	if frac < 0.12 || frac > 0.22 {
		t.Fatalf("P(X>5) = %v, want ~0.17", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	g := rng()
	z := NewZipf(g, 1.2, 1000)
	if z == nil {
		t.Fatal("NewZipf returned nil for valid params")
	}
	counts := make(map[int]int)
	const n = 100000
	for i := 0; i < n; i++ {
		r := z.Rank()
		if r < 1 || r > 1000 {
			t.Fatalf("rank %d out of [1,1000]", r)
		}
		counts[r]++
	}
	if counts[1] <= counts[10] {
		t.Fatalf("rank 1 (%d) should dominate rank 10 (%d)", counts[1], counts[10])
	}
	top10 := 0
	for r := 1; r <= 10; r++ {
		top10 += counts[r]
	}
	if frac := float64(top10) / n; frac < 0.5 {
		t.Fatalf("top-10 share = %v, want majority for s=1.2", frac)
	}
}

func TestZipfInvalid(t *testing.T) {
	if NewZipf(rng(), 0.5, 100) != nil {
		t.Fatal("s<=1 must return nil")
	}
	if NewZipf(rng(), 2, 0) != nil {
		t.Fatal("n<=0 must return nil")
	}
	var z *Zipf
	if z.Rank() != 1 {
		t.Fatal("nil Zipf Rank should degrade to 1")
	}
}
