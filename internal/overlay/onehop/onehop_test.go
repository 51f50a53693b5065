package onehop

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func newOverlay(t *testing.T, n int, seed int64, cfg Config) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw := NewNetwork(s, nm, cfg)
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Europe)
	}
	if err := nw.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, nw
}

func TestBuildValidation(t *testing.T) {
	s := sim.New()
	nw := NewNetwork(s, netmodel.New(s), Config{})
	nw.AddNode(netmodel.Europe)
	if err := nw.Build(); err == nil {
		t.Fatal("Build with one node should error")
	}
}

func TestLookupSingleHopOnStableNetwork(t *testing.T) {
	s, nw := newOverlay(t, 500, 1, Config{})
	bad := 0
	const lookups = 50
	for i := 0; i < lookups; i++ {
		key := s.Stream("k").Uint64()
		origin := nw.Nodes()[s.Stream("o").Intn(500)]
		truth := nw.OwnerOf(key)
		nw.Lookup(origin, key, func(r Result) {
			if !r.OK || r.Attempts != 1 || r.Owner != truth.Addr {
				bad++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad != 0 {
		t.Fatalf("%d/%d stable-network lookups were not clean one-hop hits", bad, lookups)
	}
}

func TestLookupLatencyIsOneRTT(t *testing.T) {
	s, nw := newOverlay(t, 100, 2, Config{})
	var lat time.Duration
	origin := nw.Nodes()[0]
	key := s.Stream("k").Uint64()
	nw.Lookup(origin, key, func(r Result) { lat = r.Latency })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Intra-EU RTT is ~30ms; one hop must be well under 100ms.
	if lat <= 0 || lat > 100*time.Millisecond {
		t.Fatalf("one-hop latency = %v, want one intra-EU RTT", lat)
	}
}

func TestStaleViewCausesRetry(t *testing.T) {
	s, nw := newOverlay(t, 200, 3, Config{ViewLag: time.Minute, RPCTimeout: time.Second})
	// Kill the true owner of a key; within ViewLag other nodes still
	// believe it online, so the first attempt must time out and retry.
	key := s.Stream("k").Uint64()
	victim := nw.OwnerOf(key)
	nw.SetOnline(victim, false)
	origin := nw.Nodes()[0]
	if origin == victim {
		origin = nw.Nodes()[1]
	}
	var res Result
	s.After(time.Second, func() { // well within ViewLag
		nw.Lookup(origin, key, func(r Result) { res = r })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK {
		t.Fatal("retry through successor list should eventually succeed")
	}
	if res.Attempts < 2 {
		t.Fatalf("Attempts = %d, want >= 2 when owner departed within view lag", res.Attempts)
	}
	if res.Latency < time.Second {
		t.Fatalf("latency %v should include at least one RPC timeout", res.Latency)
	}
}

func TestViewConvergesAfterLag(t *testing.T) {
	s, nw := newOverlay(t, 200, 4, Config{ViewLag: 30 * time.Second, RPCTimeout: time.Second})
	key := s.Stream("k").Uint64()
	victim := nw.OwnerOf(key)
	nw.SetOnline(victim, false)
	origin := nw.Nodes()[0]
	if origin == victim {
		origin = nw.Nodes()[1]
	}
	var res Result
	s.After(2*time.Minute, func() { // view has converged
		nw.Lookup(origin, key, func(r Result) { res = r })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK || res.Attempts != 1 {
		t.Fatalf("after view convergence lookup should be clean one-hop, got attempts=%d ok=%v", res.Attempts, res.OK)
	}
}

func TestLookupFromOfflineOrigin(t *testing.T) {
	s, nw := newOverlay(t, 50, 5, Config{})
	n := nw.Nodes()[0]
	nw.SetOnline(n, false)
	var res *Result
	nw.Lookup(n, 99, func(r Result) { res = &r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.OK {
		t.Fatal("offline origin must fail immediately")
	}
}

func TestMaintenanceModel(t *testing.T) {
	p := MaintenanceParams{
		N:           100_000,
		MeanSession: time.Hour,
		MeanGap:     time.Hour,
	}
	// 2*1e5 events per 2h = ~27.8 events/s.
	rate := p.EventRate()
	if rate < 27 || rate < 0 || rate > 29 {
		t.Fatalf("EventRate = %v, want ~27.8", rate)
	}
	ord := p.OrdinaryBps()
	// 27.8 ev/s * 20 B * 8 * 1.5 = ~6.7 kbps: feasible on any broadband
	// link — the Gupta et al. conclusion.
	if ord < 5_000 || ord > 9_000 {
		t.Fatalf("OrdinaryBps = %v, want ~6.7kbps", ord)
	}
	if p.SliceLeaderBps() <= p.UnitLeaderBps() || p.UnitLeaderBps() <= ord {
		t.Fatal("hierarchy bandwidth must increase with responsibility")
	}
}

func TestMaintenanceScalesLinearly(t *testing.T) {
	small := MaintenanceParams{N: 10_000, MeanSession: time.Hour, MeanGap: time.Hour}
	big := MaintenanceParams{N: 100_000, MeanSession: time.Hour, MeanGap: time.Hour}
	ratio := big.OrdinaryBps() / small.OrdinaryBps()
	if ratio < 9.9 || ratio > 10.1 {
		t.Fatalf("ordinary bandwidth should scale linearly with n, ratio = %v", ratio)
	}
}

func TestZeroChurnModel(t *testing.T) {
	p := MaintenanceParams{N: 1000}
	if p.EventRate() != 0 || p.OrdinaryBps() != 0 {
		t.Fatal("zero churn must imply zero maintenance")
	}
}

// TestLookupResultsPinned compares 2 100 lookups on a six-region overlay — a
// third of it taken offline mid-run behind a 10 s view lag, an RPC deadline
// that the slower region pairs miss so late replies do occur — with a digest
// captured at the commit where one-hop still carried its own
// request/response/deadline exchange.
func TestLookupResultsPinned(t *testing.T) {
	s := sim.New(sim.WithSeed(9))
	nw := NewNetwork(s, netmodel.New(s, netmodel.WithJitter(0.1)), Config{RPCTimeout: 200 * time.Millisecond, ViewLag: 10 * time.Second})
	const n = 300
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Region(1 + i%netmodel.NumRegions))
	}
	if err := nw.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	keys, origins := s.Stream("k"), s.Stream("o")
	h := sha256.New()
	const lookups = 2100
	done := 0
	for i := 0; i < lookups; i++ {
		s.At(time.Duration(i)*50*time.Millisecond, func() {
			origin := nw.Nodes()[n/3+origins.Intn(n-n/3)]
			nw.Lookup(origin, keys.Uint64(), func(r Result) {
				done++
				fmt.Fprintf(h, "%d|%d|%d|%t\n", r.Owner, r.Attempts, r.Latency, r.OK)
			})
		})
	}
	s.At(40*time.Second, func() {
		for _, node := range nw.Nodes()[:n/3] {
			nw.SetOnline(node, false)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != lookups {
		t.Fatalf("%d of %d lookups reported", done, lookups)
	}
	const want = "d8837ba35cc56a8df52239db9dc56a46568ad5421c2e64fe24b78eb6cd63aa10"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("lookup results digest %s, want %s", got, want)
	}
}
