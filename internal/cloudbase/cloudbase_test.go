package cloudbase

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestValidation(t *testing.T) {
	s := sim.New()
	if _, err := NewCluster(s, Config{Shards: 0}); err == nil {
		t.Fatal("zero shards should error")
	}
	if _, err := NewCluster(s, Config{Shards: 4, CrossShardFrac: 2}); err == nil {
		t.Fatal("bad cross-shard fraction should error")
	}
	c, err := NewCluster(s, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0, time.Second); err == nil {
		t.Fatal("zero rate should error")
	}
}

func TestCapacityScalesWithShards(t *testing.T) {
	small := Config{Shards: 4, ServiceTime: time.Millisecond}
	big := Config{Shards: 64, ServiceTime: time.Millisecond}
	if big.CapacityTPS() != 16*small.CapacityTPS() {
		t.Fatalf("capacity should scale linearly: %v vs %v", small.CapacityTPS(), big.CapacityTPS())
	}
	// 64 shards at 1ms service: 64k tps ceiling, comfortably above VISA's
	// 24k — the cloud side of E6.
	if big.CapacityTPS() < 24_000 {
		t.Fatalf("64-shard capacity = %v, want >= 24000", big.CapacityTPS())
	}
}

func TestUnderloadLowLatency(t *testing.T) {
	s := sim.New(sim.WithSeed(1))
	c, err := NewCluster(s, Config{Shards: 64, ServiceTime: time.Millisecond, CrossShardFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(24_000, 10*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.TPS < 20_000 {
		t.Fatalf("TPS = %v, want ~24000", st.TPS)
	}
	if st.P99 > 100*time.Millisecond {
		t.Fatalf("P99 = %v, want low-latency under 50%% load", st.P99)
	}
}

func TestOverloadSaturates(t *testing.T) {
	s := sim.New(sim.WithSeed(2))
	cfg := Config{Shards: 8, ServiceTime: time.Millisecond, CrossShardFrac: 0.1}
	c, err := NewCluster(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Offer 3x capacity.
	st, err := c.Run(3*cfg.CapacityTPS(), 5*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Throughput is pinned near capacity and latency blows up.
	if st.TPS > 1.3*cfg.CapacityTPS() {
		t.Fatalf("TPS %v exceeds capacity %v", st.TPS, cfg.CapacityTPS())
	}
	if st.P99 < 100*time.Millisecond {
		t.Fatalf("P99 = %v, want queueing blow-up under overload", st.P99)
	}
}

func TestCrossShardCostsCapacity(t *testing.T) {
	none := Config{Shards: 16, ServiceTime: time.Millisecond, CrossShardFrac: 0}
	half := Config{Shards: 16, ServiceTime: time.Millisecond, CrossShardFrac: 0.5}
	if none.CapacityTPS() <= half.CapacityTPS() {
		t.Fatal("cross-shard transactions must reduce capacity")
	}
}

func TestSingleShardDegenerate(t *testing.T) {
	s := sim.New(sim.WithSeed(3))
	c, err := NewCluster(s, Config{Shards: 1, ServiceTime: time.Millisecond, CrossShardFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(100, time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.TPS == 0 {
		t.Fatal("single-shard cluster processed nothing")
	}
}

// TestRunPinned compares one load run's statistics and its latency sample
// (count, mean, five quantiles) with a digest captured at the commit where
// Run still carried its own Poisson arrival loop; keys, the cross-shard draw
// and the gaps share one stream, so a draw moved across an arrival shows.
func TestRunPinned(t *testing.T) {
	s := sim.New(sim.WithSeed(21))
	c, err := NewCluster(s, Config{Shards: 8, ServiceTime: time.Millisecond, CrossShardFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(5000, 2*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%x|%d|%d|%x\n", math.Float64bits(st.TPS), st.P99, c.latency.Count(), math.Float64bits(c.latency.Mean()))
	for _, p := range []float64{0, 25, 50, 75, 100} {
		fmt.Fprintf(h, "%x\n", math.Float64bits(c.latency.Percentile(p)))
	}
	const want = "edeb1536e52f0c89c8a607392a59fcf05eadd4c088e63a1a0340d09e41714d79"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("load run digest %s, want %s", got, want)
	}
}
