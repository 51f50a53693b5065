package edge

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func deploy(t *testing.T, seed int64, cfg Config) *Deployment {
	t.Helper()
	d, err := New(sim.NewRNG(seed), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestValidation(t *testing.T) {
	if _, err := New(sim.NewRNG(1), Config{}); err == nil {
		t.Fatal("zero populations should error")
	}
}

func TestEdgeBeatsCloud(t *testing.T) {
	d := deploy(t, 2, Config{Clients: 2000, EdgeNodes: 50, CloudDCs: 3})
	cmp := d.Compare(20)
	if cmp.MedianSpeedup < 1.5 {
		t.Fatalf("median speedup = %v, want edge clearly faster", cmp.MedianSpeedup)
	}
	if cmp.EdgeMedianMs >= cmp.CloudMedianMs {
		t.Fatal("edge median must beat cloud median")
	}
	if cmp.CloudMedianMs > cmp.CentralMedianMs {
		t.Fatal("nearest-of-3 clouds cannot be slower than a single central DC")
	}
	if cmp.WithinBudgetEdge <= cmp.WithinBudgetCloud {
		t.Fatalf("edge budget fraction %v should exceed cloud %v",
			cmp.WithinBudgetEdge, cmp.WithinBudgetCloud)
	}
}

func TestMoreEdgeNodesLowerLatency(t *testing.T) {
	few := deploy(t, 3, Config{Clients: 1000, EdgeNodes: 10, CloudDCs: 3})
	many := deploy(t, 3, Config{Clients: 1000, EdgeNodes: 200, CloudDCs: 3})
	if many.Latencies(EdgePlacement).Median() >= few.Latencies(EdgePlacement).Median() {
		t.Fatal("denser edge deployment should cut latency")
	}
}

func TestNearestDistanceScaling(t *testing.T) {
	// Empirical nearest-edge distance should track the 0.5*a/sqrt(n) law
	// within a factor of ~2 (the constant depends on boundary effects).
	cfg := Config{Clients: 5000, EdgeNodes: 100, CloudDCs: 1}
	d := deploy(t, 4, cfg)
	var sum float64
	for _, c := range d.clients {
		sum += dist(c, nearest(c, d.edges))
	}
	mean := sum / float64(len(d.clients))
	want := TheoreticalNearestDistance(3000, 100)
	if mean < want/2 || mean > want*2 {
		t.Fatalf("mean nearest distance = %v km, analytic ~%v km", mean, want)
	}
}

func TestLatencyFloor(t *testing.T) {
	// Even with an edge node on top of the client, RTT >= 2*lastMileMs +
	// Service.
	d := deploy(t, 5, Config{Clients: 100, EdgeNodes: 5000, CloudDCs: 1, ServiceMs: 1})
	med := d.Latencies(EdgePlacement).Median()
	if med < 9 {
		t.Fatalf("median %v below physical floor 9ms", med)
	}
	if med > 25 {
		t.Fatalf("median %v too high with 5000 edge nodes", med)
	}
}

func TestCentralPlacementFixedDC(t *testing.T) {
	d := deploy(t, 6, Config{Clients: 500, EdgeNodes: 5, CloudDCs: 5})
	central := d.Latencies(CentralPlacement)
	cloud := d.Latencies(CloudPlacement)
	if central.Median() < cloud.Median() {
		t.Fatal("central single-DC median cannot beat nearest-of-5")
	}
}

func TestPlacementString(t *testing.T) {
	if EdgePlacement.String() != "edge" || CloudPlacement.String() != "cloud" ||
		CentralPlacement.String() != "central" || Placement(0).String() != "unknown" {
		t.Fatal("Placement strings wrong")
	}
}

func TestTheoreticalNearestDistance(t *testing.T) {
	if TheoreticalNearestDistance(3000, 0) != 0 {
		t.Fatal("n=0 should be 0")
	}
	if got := TheoreticalNearestDistance(3000, 100); math.Abs(got-150) > 1e-9 {
		t.Fatalf("analytic distance = %v, want 150", got)
	}
}

func TestDurationHelper(t *testing.T) {
	if Duration(1.5).Microseconds() != 1500 {
		t.Fatal("Duration conversion wrong")
	}
}
