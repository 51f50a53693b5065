package offchain

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// refQueue is the heap.Interface adapter route ran on before it got a typed
// queue of its own. Min-hop Dijkstra ties on dist most of the time, so which
// of several equal-hop paths a payment takes is decided by container/heap's
// exact sift sequence; the adapter stays here as the reference routeQueue
// must match pop for pop.
type refQueue []pqItem

func (p refQueue) Len() int           { return len(p) }
func (p refQueue) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p refQueue) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refQueue) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *refQueue) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// TestRouteQueueMatchesContainerHeap drives routeQueue and container/heap
// with the same random interleaving of pushes and pops. dist is drawn from
// 0…4 so nearly every comparison is a tie, and node is a unique serial, so
// equal pop sequences mean the two queues made the same sift decisions.
func TestRouteQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := sim.NewRNG(seed)
		var q routeQueue
		ref := &refQueue{}
		serial := 0
		for step := 0; step < 5000; step++ {
			if len(q) != ref.Len() {
				t.Fatalf("seed %d step %d: len %d, reference %d", seed, step, len(q), ref.Len())
			}
			// Push-heavy while small, pop-heavy once deep, so the run
			// crosses every heap size up to a few hundred repeatedly.
			if len(q) == 0 || g.Intn(400) > len(q) {
				it := pqItem{node: serial, dist: g.Intn(5)}
				serial++
				q.push(it)
				heap.Push(ref, it)
				continue
			}
			got, want := q.pop(), heap.Pop(ref).(pqItem)
			if got != want {
				t.Fatalf("seed %d step %d: pop = %+v, container/heap pops %+v", seed, step, got, want)
			}
		}
		for ref.Len() > 0 {
			if got, want := q.pop(), heap.Pop(ref).(pqItem); got != want {
				t.Fatalf("seed %d drain: pop = %+v, container/heap pops %+v", seed, got, want)
			}
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: %d items left after the reference drained", seed, len(q))
		}
	}
}

// pinnedNetwork builds E18's two shapes (60 nodes; 3 hubs, or a degree-6
// mesh) with per-channel capacity low enough that liquidity runs out in
// places, so routes must detour and ties between equal-hop detours matter.
func pinnedNetwork(t testing.TB, g *sim.RNG, hub, transport bool) *Network {
	t.Helper()
	const nodes = 60
	nw, err := NewNetwork(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if transport {
		mix, err := netmodel.MixPreset(netmodel.MixGlobal)
		if err != nil {
			t.Fatal(err)
		}
		nm := netmodel.New(sim.New(sim.WithSeed(18)), netmodel.WithJitter(0.1))
		addrs, err := nm.BuildTopology(netmodel.TopologySpec{Nodes: nodes, Mix: mix})
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.AttachTransport(nm, addrs); err != nil {
			t.Fatal(err)
		}
	}
	if hub {
		err = BuildHubTopology(nw, 3, 400)
	} else {
		err = BuildMeshTopology(g, nw, 6, 120)
	}
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// routeDigest hashes, for 5 000 payments, the hop list route picks and
// whether Pay then succeeds, followed by the final forwarding counters and —
// with a transport — the latency sample chargeHops built from those paths.
func routeDigest(t *testing.T, hub, transport bool) string {
	g := sim.NewRNG(18)
	nw := pinnedNetwork(t, g, hub, transport)
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < 5000; i++ {
		src, dst, amt := g.Intn(nw.n), g.Intn(nw.n), 1+g.Float64()*20
		if src == dst {
			continue
		}
		path := nw.route(src, dst, amt)
		put(uint64(len(path)))
		for _, chIdx := range path {
			put(uint64(chIdx))
		}
		if nw.Pay(src, dst, amt) != (path != nil) {
			t.Fatalf("payment %d: Pay disagrees with route about feasibility", i)
		}
	}
	put(uint64(nw.Payments()))
	for _, v := range nw.routedVia {
		put(uint64(v))
	}
	if transport {
		put(uint64(nw.PaymentLatencies().Count()))
		put(math.Float64bits(nw.PaymentLatencies().Mean()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRoutePathsPinned pins every path choice against digests captured at
// the commit that still routed through container/heap.
func TestRoutePathsPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		hub, transport bool
		want           string
	}{
		{"hub", true, false, "a69589277945da86752860957e42ac2a43ddb69bf8a7bddcfc395a05a3ccfbf2"},
		{"hub+transport", true, true, "6e3ac2ccbdf462513ec6d6d01e7d05a0ed68c7b049cac49b655f2d725ffceb8b"},
		{"mesh", false, false, "427946ee32572f44956733007fcf1e9e1bfcc90e8590c0f5525c55c89182abec"},
		{"mesh+transport", false, true, "c0ecf450f898aada526a4308b8aba6ef5d8da08deaea61e9a3d573735f98b19b"},
	} {
		if got := routeDigest(t, tc.hub, tc.transport); got != tc.want {
			t.Errorf("%s: route digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPaySteadyStateAllocs pins that routing works out of the scratch the
// Network holds: once early payments have grown the queue and the path slice
// (a node is queued at most once per search, so they stop at n), Pay without
// a transport allocates nothing.
func TestPaySteadyStateAllocs(t *testing.T) {
	g := sim.NewRNG(18)
	nw := pinnedNetwork(t, g, false, false)
	failed := 0
	pay := func() {
		src, dst := g.Intn(nw.n), g.Intn(nw.n)
		if !nw.Pay(src, dst, 1+g.Float64()*20) {
			failed++
		}
	}
	for i := 0; i < 200; i++ {
		pay()
	}
	if avg := testing.AllocsPerRun(2000, pay); avg != 0 {
		t.Fatalf("Pay allocates %.2f per call in steady state, want 0", avg)
	}
	if nw.Payments() == 0 || failed == 0 {
		t.Fatalf("want both outcomes exercised, got %d paid / %d failed", nw.Payments(), failed)
	}
}

// BenchmarkPay routes random payments over E18's mesh shape (60 nodes,
// degree 6), refilling nothing: as liquidity drains, routes detour.
func BenchmarkPay(b *testing.B) {
	g := sim.NewRNG(18)
	nw := pinnedNetwork(b, g, false, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Pay(g.Intn(nw.n), g.Intn(nw.n), 1+g.Float64()*20)
	}
}
