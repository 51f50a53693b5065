package chord

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func newRing(t *testing.T, n int, seed int64, cfg Config) (*sim.Sim, *Network) {
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

func TestBuildConvergedRing(t *testing.T) {
	_, nw := newRing(t, 100, 1, Config{})
	for _, n := range nw.Nodes() {
		if len(n.successors) != successorListLen {
			t.Fatalf("successor list len = %d, want %d", len(n.successors), successorListLen)
		}
		if n.fingers[0].Addr == n.Addr && nw.OwnerOf(n.ID+1).Addr != n.Addr {
			t.Fatal("finger 0 not set")
		}
	}
}

func TestLookupResolvesTrueOwner(t *testing.T) {
	s, nw := newRing(t, 200, 2, Config{})
	wrong := 0
	const lookups = 50
	for i := 0; i < lookups; i++ {
		key := s.Stream("keys").Uint64()
		origin := nw.Nodes()[s.Stream("origins").Intn(200)]
		truth := nw.OwnerOf(key)
		nw.Lookup(origin, key, func(r Result) {
			if !r.OK || r.Owner.Addr != truth.Addr {
				wrong++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wrong != 0 {
		t.Fatalf("%d/%d lookups resolved the wrong owner on a stable ring", wrong, lookups)
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	s, nw := newRing(t, 1024, 3, Config{})
	var totalHops, count int
	for i := 0; i < 60; i++ {
		origin := nw.Nodes()[s.Stream("o").Intn(1024)]
		nw.Lookup(origin, s.Stream("k").Uint64(), func(r Result) {
			if r.OK {
				totalHops += r.Hops
				count++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count < 55 {
		t.Fatalf("only %d lookups succeeded", count)
	}
	mean := float64(totalHops) / float64(count)
	// O(log2 n) = 10; with half-finger expectation ~ 0.5*log2(n)+1 plus the
	// final verification hop. Anything in [2, 10] is the right shape;
	// a linear scan would be ~hundreds.
	if mean < 2 || mean > 10 {
		t.Fatalf("mean hops = %v, want O(log n) ∈ [2,10]", mean)
	}
}

func TestLookupAfterMassFailure(t *testing.T) {
	s, nw := newRing(t, 300, 4, Config{RPCTimeout: time.Second})
	// Kill 20% of nodes without any repair.
	for i := 0; i < 60; i++ {
		nw.SetOnline(nw.Nodes()[i], false)
	}
	okCount, failCount, timeouts := 0, 0, 0
	for i := 0; i < 40; i++ {
		origin := nw.Nodes()[100+s.Stream("o").Intn(200)]
		key := s.Stream("k").Uint64()
		nw.Lookup(origin, key, func(r Result) {
			if r.OK {
				okCount++
			} else {
				failCount++
			}
			timeouts += r.Timeouts
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if okCount < 30 {
		t.Fatalf("only %d/40 lookups survived 20%% failures (successor lists should cover)", okCount)
	}
	if timeouts == 0 {
		t.Fatal("expected some timeout-and-retry with 20% of nodes dead")
	}
}

func TestLookupFromOfflineOrigin(t *testing.T) {
	s, nw := newRing(t, 50, 7, Config{})
	n := nw.Nodes()[0]
	nw.SetOnline(n, false)
	var got *Result
	nw.Lookup(n, 12345, func(r Result) { got = &r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil || got.OK {
		t.Fatal("offline origin must yield a failed result")
	}
}

func TestOwnerOf(t *testing.T) {
	_, nw := newRing(t, 10, 8, Config{})
	key := nw.Nodes()[3].ID // a node's own id is owned by that node
	if nw.OwnerOf(key).Addr != nw.Nodes()[3].Addr {
		t.Fatal("OwnerOf(node.ID) should be the node itself")
	}
}

// TestLookupResultsPinned compares 2 100 lookups on a six-region ring — a
// third of it taken offline mid-run, an RPC deadline that the slower region
// pairs miss so late replies do occur — with a digest captured at the commit
// where Chord still carried its own request/response/deadline exchange.
func TestLookupResultsPinned(t *testing.T) {
	s := sim.New(sim.WithSeed(9))
	nw := NewNetwork(s, netmodel.New(s, netmodel.WithJitter(0.1)), Config{RPCTimeout: 200 * time.Millisecond})
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
				fmt.Fprintf(h, "%d|%d|%d|%d|%d|%t\n", r.Owner.ID, r.Owner.Addr, r.Hops, r.Timeouts, r.Latency, r.OK)
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
	const want = "ea40873a03d5b118a914290ce573713bd4a15f3bf319fb31a0d5f5d5f68e6a90"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("lookup results digest %s, want %s", got, want)
	}
}
