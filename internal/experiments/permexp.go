package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/pbft"
	"repro/internal/permissioned"
	"repro/internal/pow"
	"repro/internal/raft"
	"repro/internal/sim"
)

// e13PermissionedVsPoW reproduces §IV: permissioned BFT/CFT consensus
// avoids proof-of-work entirely and delivers orders of magnitude more
// throughput with immediate finality.
func e13PermissionedVsPoW() core.Experiment {
	return &exp{
		id:    "E13",
		title: "Permissioned consensus vs permissionless proof-of-work",
		claim: "§IV: permissioned blockchains avoid costly proof-of-work by using CFT or BFT consensus (BFT-SMaRt); consensus can be configured between a subset of nodes, unlike broadcast networks where all nodes participate in all transactions.",
		run: func(cfg core.Config, r *core.Result) error {
			durSecs := e13Duration.get(cfg)
			dur := time.Duration(durSecs) * time.Second
			rate := e13Rate.get(cfg)
			tab := metrics.NewTable("consensus comparison (simulated)",
				"system", "n", "fault model", "tps", "finality (mean)", "finality (p99)", "msgs/req")

			var pbft4TPS, pbft4Mean float64
			var pbftMeanLat time.Duration
			for _, n := range []int{4, 16} {
				s := newSim(cfg)
				nm := netmodel.New(s, netmodel.WithJitter(0.1))
				cl, err := pbft.NewCluster(s, nm, n, netmodel.Europe, pbft.Config{
					BatchSize:    e13Batch.get(cfg),
					BatchTimeout: 20 * time.Millisecond,
				})
				if err != nil {
					return err
				}
				st, err := cl.RunLoad(rate, dur)
				if err != nil {
					return err
				}
				tab.AddRowf(fmt.Sprintf("pbft (f=%d byzantine)", cl.F()), n, "byzantine",
					st.TPS, st.MeanLatency.Seconds(), st.P99Latency.Seconds(), st.MsgsPerReq)
				if n == 4 {
					pbft4TPS = st.TPS
					pbft4Mean = st.MeanLatency.Seconds()
					pbftMeanLat = st.MeanLatency
				}
			}
			var raftTPS float64
			{
				raftN := e13RaftNodes.get(cfg)
				s := newSim(cfg)
				nm := netmodel.New(s, netmodel.WithJitter(0.1))
				cl, err := raft.NewCluster(s, nm, raftN, netmodel.Europe)
				if err != nil {
					return err
				}
				st, err := cl.RunLoad(rate, dur)
				if err != nil {
					return err
				}
				raftTPS = st.TPS
				tab.AddRowf("raft (CFT orderer)", raftN, "crash",
					st.TPS, st.MeanLatency.Seconds(), st.P99Latency.Seconds(), 0)
			}
			// PoW reference: throughput from E06 params, finality = 6
			// confirmations.
			btc := pow.BitcoinParams(400)
			finality := 6 * btc.Interval
			tab.AddRowf("bitcoin PoW", "~10000", "byzantine (open)",
				btc.TPS(), finality.Seconds(), finality.Seconds(), "gossip")
			tab.AddNote("PoW finality uses the 6-confirmation convention; PBFT/Raft finality is absolute")
			r.Tables = append(r.Tables, tab)

			r.AddCheck(pbft4TPS/btc.TPS() >= 100, "pbft-throughput-gap",
				"pbft n=4 runs %.0fx bitcoin's throughput", pbft4TPS/btc.TPS())
			r.AddCheck(pbftMeanLat < time.Second, "subsecond-finality",
				"pbft mean finality %.3fs vs bitcoin's %.0fs", pbft4Mean, finality.Seconds())
			r.AddCheck(raftTPS >= pbft4TPS*0.5, "cft-cheaper-than-bft",
				"raft tps %.0f vs pbft %.0f (CFT avoids the O(n^2) phases)", raftTPS, pbft4TPS)
			return nil
		},
	}
}

// e14EdgeVsCloud reproduces §V / Figure 1: edge placement plus permissioned
// trust versus the centralized cloud.
func e14EdgeVsCloud() core.Experiment {
	return &exp{
		id:    "E14",
		title: "Edge-centric placement with permissioned trust",
		claim: "§V / Fig.1: modern services are data-intensive and latency-sensitive, making a centralized cloud a poor match; permissioned blockchains provide the decentralized trust that edge federations need (authorization and auditing).",
		run: func(cfg core.Config, r *core.Result) error {
			g := sim.NewRNG(cfg.Seed)
			edgeNodes := e14EdgeNodes.get(cfg)
			cloudDCs := e14CloudDCs.get(cfg)
			clients := e14Clients.get(cfg)
			d, err := edge.New(g, edge.Config{
				Clients:   clients,
				EdgeNodes: edgeNodes,
				CloudDCs:  cloudDCs,
			})
			if err != nil {
				return err
			}
			budgetMs := e14BudgetMs.get(cfg)
			cmp := d.Compare(budgetMs)
			tab := metrics.NewTable("client RTT by placement (ms, simulated geography)",
				"placement", "median", "p95", fmt.Sprintf("%% within %gms budget", budgetMs))
			tab.AddRowf(fmt.Sprintf("edge (%d nano-DCs)", edgeNodes), cmp.EdgeMedianMs, cmp.EdgeP95Ms, cmp.WithinBudgetEdge*100)
			tab.AddRowf(fmt.Sprintf("cloud (%d regional DCs)", cloudDCs), cmp.CloudMedianMs, cmp.CloudP95Ms, cmp.WithinBudgetCloud*100)
			tab.AddRowf("central (1 DC)", cmp.CentralMedianMs, "", "")
			r.Tables = append(r.Tables, tab)

			// The trust layer: a permissioned audit channel among edge
			// operators; measure commit latency of audit records.
			s := newSim(cfg)
			nm := netmodel.New(s, netmodel.WithJitter(0.1))
			nw, err := permissioned.NewNetwork(s, nm, permissioned.Config{BlockSize: 20})
			if err != nil {
				return err
			}
			operators := []string{"op-north", "op-south", "op-east", "op-west"}
			for _, op := range operators {
				if _, err := nw.AddOrg(op, netmodel.Europe); err != nil {
					return err
				}
			}
			if _, err := nw.CreateChannel("audit", operators, permissioned.Policy{Required: 2}); err != nil {
				return err
			}
			auditCC := func(stub *permissioned.Stub, args []string) error {
				return stub.PutState("audit:"+args[0], []byte(args[1]))
			}
			if err := nw.InstallChaincode("audit", "audit", auditCC); err != nil {
				return err
			}
			if err := nw.Start(); err != nil {
				return err
			}
			var lat metrics.Sample
			records := e14Records.get(cfg)
			s.After(3*time.Second, func() {
				for i := 0; i < records; i++ {
					key := fmt.Sprintf("rec%d", i)
					op := operators[i%len(operators)]
					err := nw.Submit("audit", op, "audit", []string{key, "served"}, func(res permissioned.TxResult) {
						if res.Valid {
							lat.AddDuration(res.Latency)
						}
					})
					if err != nil {
						return
					}
				}
			})
			if err := s.RunUntil(60 * time.Second); err != nil {
				return err
			}
			ch, _ := nw.Channel("audit")
			tab2 := metrics.NewTable("permissioned audit trail among edge operators",
				"metric", "value")
			tab2.AddRowf("audit records committed", ch.Committed())
			tab2.AddRowf("commit latency median (s)", lat.Median())
			tab2.AddRowf("chain height", ch.Height())
			r.Tables = append(r.Tables, tab2)

			r.AddCheck(cmp.MedianSpeedup >= 2, "edge-speedup",
				"edge median %.1fms vs cloud %.1fms (%.1fx)", cmp.EdgeMedianMs, cmp.CloudMedianMs, cmp.MedianSpeedup)
			r.AddCheck(cmp.WithinBudgetEdge > cmp.WithinBudgetCloud+0.2, "interactive-budget",
				"%.0f%% of clients within %gms at the edge vs %.0f%% from the cloud",
				cmp.WithinBudgetEdge*100, budgetMs, cmp.WithinBudgetCloud*100)
			r.AddCheck(ch.Committed() >= records*9/10 && lat.Median() < 3, "audit-trail-works",
				"%d/%d audit records committed, median %.2fs — trust without a third party",
				ch.Committed(), records, lat.Median())
			return nil
		},
	}
}

// e16Channels reproduces §IV: Fabric-style channels confine consensus and
// validation to the interested subset, unlike global-broadcast chains.
func e16Channels() core.Experiment {
	return &exp{
		id:    "E16",
		title: "Channels: consensus among subsets beats global broadcast",
		claim: "§IV: one distinguishing aspect of Hyperledger Fabric is that consensus can be configured between a subset of the nodes of the network, unlike traditional broadcast networks where all nodes must participate in all transactions.",
		run: func(cfg core.Config, r *core.Result) error {
			const orgs = 12
			txPerChannel := e16Txs.get(cfg)
			blockSize := e16BlockSize.get(cfg)
			endorsers := e16Endorsers.get(cfg)
			put := func(stub *permissioned.Stub, args []string) error {
				return stub.PutState(args[0], []byte(args[1]))
			}
			names := make([]string, orgs)
			for i := range names {
				names[i] = fmt.Sprintf("org%d", i)
			}

			// Scenario A: four 3-org channels, each carrying its own load.
			run := func(channels int) (perPeerMean float64, total int, err error) {
				s := newSim(cfg)
				nm := netmodel.New(s, netmodel.WithJitter(0.1))
				nw, err := permissioned.NewNetwork(s, nm, permissioned.Config{BlockSize: blockSize})
				if err != nil {
					return 0, 0, err
				}
				for _, n := range names {
					if _, err := nw.AddOrg(n, netmodel.Europe); err != nil {
						return 0, 0, err
					}
				}
				per := orgs / channels
				chNames := make([]string, channels)
				for c := 0; c < channels; c++ {
					members := names[c*per : (c+1)*per]
					chNames[c] = fmt.Sprintf("ch%d", c)
					if _, err := nw.CreateChannel(chNames[c], members, permissioned.Policy{Required: endorsers}); err != nil {
						return 0, 0, err
					}
					if err := nw.InstallChaincode(chNames[c], "put", put); err != nil {
						return 0, 0, err
					}
				}
				if err := nw.Start(); err != nil {
					return 0, 0, err
				}
				resolved := 0
				s.After(3*time.Second, func() {
					for c := 0; c < channels; c++ {
						creator := names[c*per]
						for i := 0; i < txPerChannel*4/channels; i++ {
							key := fmt.Sprintf("k%d-%d", c, i)
							_ = nw.Submit(chNames[c], creator, "put", []string{key, "v"},
								func(permissioned.TxResult) { resolved++ })
						}
					}
				})
				if err := s.RunUntil(2 * time.Minute); err != nil {
					return 0, 0, err
				}
				var work int64
				for c := 0; c < channels; c++ {
					ch, _ := nw.Channel(chNames[c])
					for _, w := range ch.PeerWork() {
						work += w
					}
				}
				return float64(work) / float64(orgs), resolved, nil
			}
			isolatedWork, isolatedResolved, err := run(4)
			if err != nil {
				return err
			}
			globalWork, globalResolved, err := run(1)
			if err != nil {
				return err
			}
			tab := metrics.NewTable("validation work per peer (same total offered load)",
				"topology", "tx resolved", "mean envelopes validated per peer")
			tab.AddRowf("4 channels x 3 orgs", isolatedResolved, isolatedWork)
			tab.AddRowf("1 global channel x 12 orgs", globalResolved, globalWork)
			tab.AddNote("a Bitcoin-style broadcast network is the global-channel case at planetary size")
			r.Tables = append(r.Tables, tab)

			ratio := globalWork / isolatedWork
			r.AddCheck(isolatedResolved >= txPerChannel*3 && globalResolved >= txPerChannel*3,
				"both-topologies-work", "resolved %d vs %d transactions", isolatedResolved, globalResolved)
			r.AddCheck(ratio > 2.5, "channels-cut-per-peer-load",
				"global broadcast costs %.1fx the per-peer validation of 4-way channels (ideal 4x)", ratio)
			return nil
		},
	}
}
