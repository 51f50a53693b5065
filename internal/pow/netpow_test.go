package pow

import (
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func minerNet(t *testing.T, seed int64, n int, mixPreset int) (*sim.Sim, *netmodel.Net, []netmodel.NodeID) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0))
	mix, err := netmodel.MixPreset(mixPreset)
	if err != nil {
		t.Fatalf("MixPreset: %v", err)
	}
	addrs, err := nm.BuildTopology(netmodel.TopologySpec{Nodes: n, Mix: mix})
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	return s, nm, addrs
}

func TestNewNetworkOverNetValidation(t *testing.T) {
	s, nm, addrs := minerNet(t, 1, 3, netmodel.MixGlobal)
	params := Params{BlockInterval: time.Minute}
	if _, err := NewNetworkOverNet(s, nil, addrs, params, []float64{1, 1, 1}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := NewNetworkOverNet(s, nm, addrs[:2], params, []float64{1, 1, 1}); err == nil {
		t.Fatal("address/hashrate length mismatch accepted")
	}
	dup := []netmodel.NodeID{addrs[0], addrs[0], addrs[1]}
	if _, err := NewNetworkOverNet(s, nm, dup, params, []float64{1, 1, 1}); err == nil {
		t.Fatal("duplicate miner address accepted")
	}
	// A transport with non-miner nodes is rejected: Broadcast blankets the
	// whole Net, so the relay requires a dedicated one.
	nm.AddNode(netmodel.Europe, 0)
	if _, err := NewNetworkOverNet(s, nm, addrs, params, []float64{1, 1, 1}); err == nil {
		t.Fatal("shared (non-dedicated) transport accepted")
	}
	s2, nm2, addrs2 := minerNet(t, 1, 3, netmodel.MixGlobal)
	if _, err := NewNetworkOverNet(s2, nm2, addrs2, params, []float64{1, 1, 1}); err != nil {
		t.Fatalf("valid construction failed: %v", err)
	}
}

// TestRelayOverTransportConverges checks the WAN-backed relay keeps miners
// on one chain when propagation is fast relative to the interval: stale
// rates stay low and every miner ends on the global best tip.
func TestRelayOverTransportConverges(t *testing.T) {
	s, nm, addrs := minerNet(t, 3, 8, netmodel.MixGlobal)
	nw, err := NewNetworkOverNet(s, nm, addrs, Params{
		BlockInterval:     10 * time.Minute,
		InitialDifficulty: 600, // total hashrate 1 -> on-target
	}, []float64{0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05})
	if err != nil {
		t.Fatalf("NewNetworkOverNet: %v", err)
	}
	nw.Start()
	if err := s.RunUntil(200 * 10 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	nw.Stop()
	st := nw.Finalize()
	if st.BlocksFound < 100 {
		t.Fatalf("only %d blocks found", st.BlocksFound)
	}
	if st.StaleRate > 0.02 {
		t.Fatalf("stale rate %.3f with ms-scale relay and 600s intervals", st.StaleRate)
	}
}

// TestPartitionForksThenHeals drives the partition schedule end to end: a
// 50/50 hashrate split mines two chains during the window, and after Heal
// one side's blocks go stale.
func TestPartitionForksThenHeals(t *testing.T) {
	s := sim.New(sim.WithSeed(5))
	nm := netmodel.New(s, netmodel.WithJitter(0))
	a := nm.AddNode(netmodel.NorthAmerica, 0)
	b := nm.AddNode(netmodel.Europe, 0)
	interval := 10 * time.Minute
	nw, err := NewNetworkOverNet(s, nm, []netmodel.NodeID{a, b}, Params{
		BlockInterval:     interval,
		InitialDifficulty: 600,
	}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatalf("NewNetworkOverNet: %v", err)
	}
	start, end := 100*interval, 200*interval
	if err := nm.SchedulePartitionWindow(start, end, map[netmodel.NodeID]int{a: 0, b: 1}); err != nil {
		t.Fatalf("SchedulePartitionWindow: %v", err)
	}
	nw.Start()
	if err := s.RunUntil(400 * interval); err != nil {
		t.Fatalf("run: %v", err)
	}
	nw.Stop()
	st := nw.Finalize()
	// During ~100 intervals of partition each side mines alone; the losing
	// side's window blocks are orphaned, so stale counts are a sizeable
	// fraction of the window.
	if st.StaleBlocks < 20 {
		t.Fatalf("stale blocks = %d; a 100-interval 50/50 partition should orphan far more", st.StaleBlocks)
	}
	// After healing, both miners converge on the same tip.
	if nw.miners[0].tipHash != nw.miners[1].tipHash {
		t.Fatal("miners did not converge after Heal")
	}
	if st.BestHeight < 250 {
		t.Fatalf("best height %d; the chain should keep growing through the partition", st.BestHeight)
	}
}

// TestPartitionHealConvergesOnMostWork cuts two of eight miners on a
// global topology, a fifth of the hashrate, off the rest for a 40-interval
// partition window, so the majority side ends it far ahead. After the heal
// and 20 more intervals it stops mining and drains the relays still in
// flight: every miner's tip must then carry the block tree's best
// cumulative work (equal-work forks may leave miners on different tips).
// A minority block relayed after the heal must not pull anyone back.
func TestPartitionHealConvergesOnMostWork(t *testing.T) {
	const interval = 10 * time.Minute
	heal := 60 * interval
	for seed := int64(1); seed <= 8; seed++ {
		s, nm, addrs := minerNet(t, seed, 8, netmodel.MixGlobal)
		nw, err := NewNetworkOverNet(s, nm, addrs, Params{
			BlockInterval:     interval,
			InitialDifficulty: 600, // total hashrate 1 -> on-target
		}, []float64{0.2, 0.15, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1})
		if err != nil {
			t.Fatalf("NewNetworkOverNet: %v", err)
		}
		groups := make(map[netmodel.NodeID]int, len(addrs))
		for i, a := range addrs {
			groups[a] = i / 6
		}
		if err := nm.SchedulePartitionWindow(20*interval, heal, groups); err != nil {
			t.Fatalf("SchedulePartitionWindow: %v", err)
		}
		nw.Start()
		if err := s.RunUntil(heal); err != nil {
			t.Fatalf("run: %v", err)
		}
		if nw.miners[0].tipHash == nw.miners[7].tipHash {
			t.Fatalf("seed %d: the two sides share a tip at the heal; the partition split nothing", seed)
		}
		if err := s.RunUntil(heal + 20*interval); err != nil {
			t.Fatalf("run: %v", err)
		}
		nw.Stop()
		if err := s.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		best := nw.chain.Work(nw.chain.BestHash())
		for _, m := range nw.miners {
			if m.tipWork != best {
				t.Errorf("seed %d: miner %d ends on work %g, the best chain has %g", seed, m.ID, m.tipWork, best)
			}
		}
	}
}

// TestAbstractDefaultUnchanged pins that a plain NewNetwork still uses the
// abstract propagation draw (no transport attached).
func TestAbstractDefaultUnchanged(t *testing.T) {
	s := sim.New(sim.WithSeed(2))
	nw, err := NewNetwork(s, Params{BlockInterval: time.Minute, InitialDifficulty: 60}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if nw.net != nil {
		t.Fatal("plain network has a transport attached")
	}
	nw.Start()
	if err := s.RunUntil(50 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	nw.Stop()
	if len(nw.blockMiner) == 0 {
		t.Fatal("no blocks found")
	}
}
