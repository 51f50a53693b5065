package gossip

import (
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func newGossip(t *testing.T, n int, seed int64, uplink float64, cfg Config) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw, err := NewNetwork(s, nm, n, uplink, nil, cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return s, nw
}

func TestValidation(t *testing.T) {
	s := sim.New()
	if _, err := NewNetwork(s, netmodel.New(s), 2, 0, nil, Config{}); err == nil {
		t.Fatal("n<3 should error")
	}
}

func TestFloodReachesEveryone(t *testing.T) {
	s, nw := newGossip(t, 500, 1, 0, Config{})
	var sp *Spread
	nw.Broadcast(0, 1000, func(x *Spread) { sp = x })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sp == nil {
		t.Fatal("broadcast never completed")
	}
	if sp.Coverage(nw.Size()) != 1.0 {
		t.Fatalf("coverage = %v, want 1.0 for flooding on a connected graph", sp.Coverage(nw.Size()))
	}
	if len(sp.DeliveryTimes) != 499 {
		t.Fatalf("delivery times = %d, want 499", len(sp.DeliveryTimes))
	}
}

func TestFanoutGossipHighCoverage(t *testing.T) {
	s, nw := newGossip(t, 500, 2, 0, Config{Degree: 10, Fanout: 4})
	var sp *Spread
	nw.Broadcast(0, 1000, func(x *Spread) { sp = x })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sp.Coverage(nw.Size()) < 0.95 {
		t.Fatalf("fanout-4 gossip coverage = %v, want >= 0.95", sp.Coverage(nw.Size()))
	}
	// Fanout gossip uses fewer messages than flooding the whole edge set.
	sF, nwF := newGossip(t, 500, 2, 0, Config{Degree: 10})
	var spF *Spread
	nwF.Broadcast(0, 1000, func(x *Spread) { spF = x })
	if err := sF.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sp.Messages >= spF.Messages {
		t.Fatalf("fanout messages (%d) should be below flooding (%d)", sp.Messages, spF.Messages)
	}
}

func TestLargerBlocksPropagateSlower(t *testing.T) {
	// With constrained uplinks, serialization delay makes big blocks slow —
	// the physics behind the fork-rate/throughput trade-off.
	run := func(size int) time.Duration {
		s, nw := newGossip(t, 300, 3, 10e6 /* 10 Mbit/s */, Config{})
		var sp *Spread
		nw.Broadcast(0, size, func(x *Spread) { sp = x })
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sp.Percentile(50)
	}
	small := run(10_000)    // 10 kB
	large := run(1_000_000) // 1 MB
	if large < 3*small {
		t.Fatalf("1MB median propagation (%v) should be far above 10kB (%v)", large, small)
	}
}

func TestPropagationMedianRealistic(t *testing.T) {
	// 1 MB blocks on 10 Mbit/s uplinks across a global graph: median
	// should land in the single-digit seconds, the Decker-Wattenhofer
	// measurement regime.
	s, nw := newGossip(t, 400, 4, 10e6, Config{})
	var sp *Spread
	nw.Broadcast(0, 1_000_000, func(x *Spread) { sp = x })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	med := sp.Percentile(50)
	if med < 500*time.Millisecond || med > 30*time.Second {
		t.Fatalf("median 1MB propagation = %v, want seconds-scale", med)
	}
}

func TestMeasurePropagationPooledSample(t *testing.T) {
	s, nw := newGossip(t, 200, 5, 0, Config{})
	var count int
	nw.MeasurePropagation(3, 50_000, func(delays []time.Duration) {
		count = len(delays)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3*199 {
		t.Fatalf("pooled sample count = %d, want 597", count)
	}
}

func TestBroadcastInvalidOrigin(t *testing.T) {
	s, nw := newGossip(t, 10, 6, 0, Config{})
	var sp *Spread
	nw.Broadcast(-1, 100, func(x *Spread) { sp = x })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sp == nil || sp.Delivered != 0 {
		t.Fatal("invalid origin should produce an empty spread")
	}
}

func TestDegree(t *testing.T) {
	_, nw := newGossip(t, 100, 7, 0, Config{Degree: 8})
	var total int
	for i := 0; i < nw.Size(); i++ {
		total += nw.Degree(i)
	}
	mean := float64(total) / float64(nw.Size())
	if mean < 6 || mean > 10 {
		t.Fatalf("mean degree = %v, want ~8", mean)
	}
	if nw.Degree(-1) != 0 || nw.Degree(100) != 0 {
		t.Fatal("out-of-range Degree should be 0")
	}
}
