package offchain

import (
	"slices"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func TestValidation(t *testing.T) {
	if _, err := NewNetwork(1); err == nil {
		t.Fatal("n<2 should error")
	}
	nw, err := NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.OpenChannel(0, 0, 10); err == nil {
		t.Fatal("self-channel should error")
	}
	if _, err := nw.OpenChannel(0, 9, 10); err == nil {
		t.Fatal("out-of-range endpoint should error")
	}
	if _, err := nw.OpenChannel(0, 1, 0); err == nil {
		t.Fatal("zero capacity should error")
	}
}

func TestDirectPayment(t *testing.T) {
	nw, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := nw.OpenChannel(0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Pay(0, 1, 30) {
		t.Fatal("direct payment failed")
	}
	if ch.BalanceA != 20 || ch.BalanceB != 80 {
		t.Fatalf("balances = %v/%v, want 20/80", ch.BalanceA, ch.BalanceB)
	}
	if ch.BalanceA+ch.BalanceB != 100 {
		t.Fatal("capacity must be conserved")
	}
	// Liquidity exhausted in one direction.
	if nw.Pay(0, 1, 30) {
		t.Fatal("payment should fail without liquidity")
	}
	// But flows fine the other way.
	if !nw.Pay(1, 0, 50) {
		t.Fatal("reverse payment should succeed")
	}
}

func TestMultiHopRoutingAndHubLoad(t *testing.T) {
	nw, err := NewNetwork(5)
	if err != nil {
		t.Fatal(err)
	}
	// Star around node 2.
	for _, leaf := range []int{0, 1, 3, 4} {
		if _, err := nw.OpenChannel(leaf, 2, 100); err != nil {
			t.Fatal(err)
		}
	}
	if !nw.Pay(0, 4, 10) {
		t.Fatal("two-hop payment failed")
	}
	if want := []int64{0, 0, 1, 0, 0}; !slices.Equal(nw.routedVia, want) {
		t.Fatalf("forwarding counts = %v, want all forwarding through node 2", nw.routedVia)
	}
	if nw.Payments() != 1 {
		t.Fatalf("Payments = %d", nw.Payments())
	}
}

func TestNoRouteFails(t *testing.T) {
	nw, err := NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.OpenChannel(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if nw.Pay(0, 3, 1) {
		t.Fatal("payment across disconnected nodes should fail")
	}
}

func TestValueConservation(t *testing.T) {
	g := sim.NewRNG(5)
	nw, err := NewNetwork(30)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildMeshTopology(g, nw, 4, 100); err != nil {
		t.Fatal(err)
	}
	var before float64
	for _, ch := range nw.channels {
		before += ch.BalanceA + ch.BalanceB
	}
	for i := 0; i < 500; i++ {
		nw.Pay(g.Intn(30), g.Intn(30), 1+g.Float64()*5)
	}
	var after float64
	for _, ch := range nw.channels {
		after += ch.BalanceA + ch.BalanceB
	}
	if before != after {
		t.Fatalf("channel value not conserved: %v -> %v", before, after)
	}
}

func TestThroughputMultiplier(t *testing.T) {
	// The layer-2 pitch: thousands of payments per on-chain transaction.
	g := sim.NewRNG(6)
	nw, err := NewNetwork(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildHubTopology(nw, 3, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		src, dst := g.Intn(50), g.Intn(50)
		if src != dst {
			nw.Pay(src, dst, 1)
		}
	}
	opens := nw.chainTxs
	nw.CloseAll()
	mult := nw.EffectiveTPSMultiplier()
	if mult < 50 {
		t.Fatalf("multiplier = %v, want payments >> on-chain txs (opens=%d)", mult, opens)
	}
}

func TestHubTopologyRecentralizes(t *testing.T) {
	// The paper's warning: layer-2 performance comes from routing through a
	// small set of peers.
	g := sim.NewRNG(7)

	hub, err := NewNetwork(60)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildHubTopology(hub, 3, 1_000_000); err != nil {
		t.Fatal(err)
	}
	mesh, err := NewNetwork(60)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildMeshTopology(g, mesh, 6, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5_000; i++ {
		src, dst := g.Intn(60), g.Intn(60)
		if src == dst {
			continue
		}
		hub.Pay(src, dst, 1)
		mesh.Pay(src, dst, 1)
	}
	hubTop3, hubGini := hub.HubConcentration(3)
	meshTop3, meshGini := mesh.HubConcentration(3)
	if hubTop3 < 0.95 {
		t.Fatalf("hub topology top-3 forwarding share = %v, want ~1", hubTop3)
	}
	if meshTop3 >= hubTop3 {
		t.Fatalf("mesh should be less concentrated: mesh %v vs hub %v", meshTop3, hubTop3)
	}
	if meshGini >= hubGini {
		t.Fatalf("mesh gini %v should be below hub gini %v", meshGini, hubGini)
	}
}

func TestHubTopologyValidation(t *testing.T) {
	nw, err := NewNetwork(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildHubTopology(nw, 0, 10); err == nil {
		t.Fatal("0 hubs should error")
	}
	if err := BuildHubTopology(nw, 5, 10); err == nil {
		t.Fatal("hubs >= n should error")
	}
	if err := BuildMeshTopology(sim.NewRNG(1), nw, 1, 10); err == nil {
		t.Fatal("degree < 2 should error")
	}
}

func TestAttachTransportLatencyAccounting(t *testing.T) {
	s := sim.New(sim.WithSeed(9))
	nm := netmodel.New(s, netmodel.WithJitter(0))
	nw, err := NewNetwork(3)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	addrs := []netmodel.NodeID{
		nm.AddNode(netmodel.NorthAmerica, 0), // 45ms to EU
		nm.AddNode(netmodel.Europe, 0),       // 80ms to AS
		nm.AddNode(netmodel.Asia, 0),
	}
	if err := nw.AttachTransport(nil, addrs); err == nil {
		t.Fatal("nil transport accepted")
	}
	if err := nw.AttachTransport(nm, addrs[:2]); err == nil {
		t.Fatal("short address list accepted")
	}
	if err := nw.AttachTransport(nm, addrs); err != nil {
		t.Fatalf("AttachTransport: %v", err)
	}
	// Line topology 0-1-2 forces the NA->EU->AS route.
	if _, err := nw.OpenChannel(0, 1, 100); err != nil {
		t.Fatalf("OpenChannel: %v", err)
	}
	if _, err := nw.OpenChannel(1, 2, 100); err != nil {
		t.Fatalf("OpenChannel: %v", err)
	}
	if !nw.Pay(0, 2, 5) {
		t.Fatal("payment failed")
	}
	lat := nw.PaymentLatencies()
	if lat.Count() != 1 {
		t.Fatalf("latency samples = %d, want 1", lat.Count())
	}
	// Two hops, forward + settle each: 2*(45ms + 80ms) = 250ms.
	if got := lat.Mean(); got < 0.249 || got > 0.251 {
		t.Fatalf("payment latency = %.3fs, want 0.250s", got)
	}
}

func TestPayWithoutTransportSamplesNothing(t *testing.T) {
	nw, err := NewNetwork(2)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if _, err := nw.OpenChannel(0, 1, 100); err != nil {
		t.Fatalf("OpenChannel: %v", err)
	}
	if !nw.Pay(0, 1, 1) {
		t.Fatal("payment failed")
	}
	if nw.PaymentLatencies().Count() != 0 {
		t.Fatal("latency sampled without a transport attached")
	}
}

func TestLossyTransportNeverSpeedsPayments(t *testing.T) {
	measure := func(loss float64) (count int, mean float64) {
		s := sim.New(sim.WithSeed(3))
		nm := netmodel.New(s, netmodel.WithJitter(0))
		nm.SetLoss(loss)
		nw, err := NewNetwork(3)
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		addrs := []netmodel.NodeID{
			nm.AddNode(netmodel.NorthAmerica, 0),
			nm.AddNode(netmodel.Europe, 0),
			nm.AddNode(netmodel.Asia, 0),
		}
		if err := nw.AttachTransport(nm, addrs); err != nil {
			t.Fatalf("AttachTransport: %v", err)
		}
		for _, pair := range [][2]int{{0, 1}, {1, 2}} {
			if _, err := nw.OpenChannel(pair[0], pair[1], 1000); err != nil {
				t.Fatalf("OpenChannel: %v", err)
			}
		}
		for i := 0; i < 30; i++ {
			if !nw.Pay(0, 2, 1) {
				t.Fatal("payment failed")
			}
		}
		lat := nw.PaymentLatencies()
		return lat.Count(), lat.Mean()
	}
	losslessN, losslessMean := measure(0)
	if losslessN != 30 {
		t.Fatalf("lossless samples = %d, want 30", losslessN)
	}
	lossyN, lossyMean := measure(0.3)
	if lossyN == 0 {
		t.Fatal("moderate loss should still complete payments within the retry cap")
	}
	// Retransmission penalties mean a lossier WAN is never faster.
	if lossyMean <= losslessMean {
		t.Fatalf("loss sped up payments: %.3fs <= %.3fs", lossyMean, losslessMean)
	}
	// Total loss: every message exhausts the retry cap and no sample is
	// recorded, rather than a misleading near-zero latency.
	blackholeN, _ := measure(1)
	if blackholeN != 0 {
		t.Fatalf("samples under 100%% loss = %d, want 0", blackholeN)
	}
}

func TestAttachTransportRejectsForeignAddrs(t *testing.T) {
	s := sim.New(sim.WithSeed(1))
	nm := netmodel.New(s)
	nw, err := NewNetwork(2)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	a := nm.AddNode(netmodel.Europe, 0)
	if err := nw.AttachTransport(nm, []netmodel.NodeID{a, netmodel.NodeID(7)}); err == nil {
		t.Fatal("unattached address accepted")
	}
	if err := nw.AttachTransport(nm, []netmodel.NodeID{a, a}); err == nil {
		t.Fatal("duplicate address accepted")
	}
	b := nm.AddNode(netmodel.Europe, 0)
	if err := nw.AttachTransport(nm, []netmodel.NodeID{a, b}); err != nil {
		t.Fatalf("valid attach failed: %v", err)
	}
}
