package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/offchain"
	"repro/internal/sim"
)

// e18OffChain reproduces §III-C Problem 2's observation about layer 2: the
// throughput fix works precisely by re-centralizing processing onto a small
// set of peers.
func e18OffChain() core.Experiment {
	return &exp{
		id:    "E18",
		title: "Layer-2 channels: throughput bought with re-centralization",
		claim: "§III-C P2: the so-called layer 2 or off-chain solutions like Lightning (Bitcoin), Plasma (Ethereum) or EOS follow this trend [toward centralization]: transactions are processed by a much smaller set of peers to increase performance.",
		run: func(cfg core.Config, r *core.Result) error {
			g := sim.NewRNG(cfg.Seed)
			nodes := knobInt(cfg, "e18.nodes")
			hubs := knobInt(cfg, "e18.hubs")
			degree := knobInt(cfg, "e18.meshdegree")
			if hubs >= nodes {
				return fmt.Errorf("e18.hubs=%d must be below e18.nodes=%d", hubs, nodes)
			}
			if degree >= nodes {
				return fmt.Errorf("e18.meshdegree=%d must be below e18.nodes=%d", degree, nodes)
			}
			payments := scaledSize(cfg, "e18.payments")
			// Equal total locked capital in both topologies.
			totalCapital := knobFloat(cfg, "e18.capital")
			mixIdx := knobIndex(cfg, "e18.mix")

			build := func(hub bool) (*offchain.Network, error) {
				nw, err := offchain.NewNetwork(nodes)
				if err != nil {
					return nil, err
				}
				if mixIdx > 0 {
					// Ride the shared WAN transport: HTLC hops are charged
					// on a regional topology and payment latency sampled.
					mix, err := netmodel.MixPreset(mixIdx)
					if err != nil {
						return nil, err
					}
					s := newSim(cfg)
					nm := netmodel.New(s, netmodel.WithJitter(0.1))
					addrs, err := nm.BuildTopology(netmodel.TopologySpec{Nodes: nodes, Mix: mix})
					if err != nil {
						return nil, err
					}
					if err := nw.AttachTransport(nm, addrs); err != nil {
						return nil, err
					}
				}
				if hub {
					// Fully-connected hubs + one channel per leaf: each
					// hub-hub channel carries 4x a leaf channel's capital
					// (3*4 + 57 shares with the documented defaults).
					hubChannels := hubs * (hubs - 1) / 2
					perChannel := totalCapital / float64(hubChannels*4+(nodes-hubs))
					return nw, offchain.BuildHubTopology(nw, hubs, perChannel)
				}
				// Mesh: degree 6 → ~180 channels with the defaults.
				perChannel := totalCapital / float64(nodes*degree/2)
				return nw, offchain.BuildMeshTopology(g, nw, degree, perChannel)
			}
			type outcome struct {
				success   float64
				top3      float64
				gini      float64
				mult      float64
				latMedian float64
				latP95    float64
			}
			measure := func(hub bool) (outcome, error) {
				nw, err := build(hub)
				if err != nil {
					return outcome{}, err
				}
				attempts := 0
				for i := 0; i < payments; i++ {
					src, dst := g.Intn(nodes), g.Intn(nodes)
					if src == dst {
						continue
					}
					attempts++
					nw.Pay(src, dst, 1+g.Float64()*20)
				}
				top3, gini := nw.HubConcentration(3)
				ok := float64(nw.Payments()) / float64(attempts)
				nw.CloseAll()
				out := outcome{
					success: ok,
					top3:    top3,
					gini:    gini,
					mult:    nw.EffectiveTPSMultiplier(),
				}
				if lat := nw.PaymentLatencies(); lat.Count() > 0 {
					out.latMedian = lat.Median()
					out.latP95 = lat.Percentile(95)
				}
				return out, nil
			}
			hub, err := measure(true)
			if err != nil {
				return err
			}
			mesh, err := measure(false)
			if err != nil {
				return err
			}
			tab := metrics.NewTable("payment-channel topologies at equal locked capital (simulated)",
				"topology", "payment success", "payments per on-chain tx", "top-3 forwarding share", "forwarding gini")
			tab.AddRowf(fmt.Sprintf("%d hubs + leaves", hubs), hub.success, hub.mult, hub.top3, hub.gini)
			tab.AddRowf(fmt.Sprintf("degree-%d mesh", degree), mesh.success, mesh.mult, mesh.top3, mesh.gini)
			tab.AddNote("hubs win on reliability and efficiency — which is why traffic gravitates to them")
			r.Tables = append(r.Tables, tab)
			if mixIdx > 0 {
				lt := metrics.NewTable(fmt.Sprintf("HTLC payment latency over the WAN (mix preset %d)", mixIdx),
					"topology", "median (s)", "p95 (s)")
				lt.AddRowf(fmt.Sprintf("%d hubs + leaves", hubs), hub.latMedian, hub.latP95)
				lt.AddRowf(fmt.Sprintf("degree-%d mesh", degree), mesh.latMedian, mesh.latP95)
				lt.AddNote("per-hop forward+settle messages charged on the shared transport")
				r.Tables = append(r.Tables, lt)
			}

			r.AddCheck(hub.mult > 20, "layer2-multiplies-throughput",
				"%.0f payments settled per on-chain transaction", hub.mult)
			r.AddCheck(hub.top3 >= 0.9, "hubs-process-everything",
				"top-3 nodes forward %.0f%% of hub-topology payments", hub.top3*100)
			r.AddCheck(hub.success >= mesh.success, "economics-favour-hubs",
				"hub success %.2f >= mesh success %.2f at equal capital — users rationally pick hubs",
				hub.success, mesh.success)
			return nil
		},
	}
}
