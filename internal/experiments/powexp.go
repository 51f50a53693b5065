package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cloudbase"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/pow"
	"repro/internal/sim"
)

// e06Throughput reproduces §III-C Problem 2: VISA 24,000 tps vs Bitcoin
// 3.3–7 tps vs Ethereum ~15 tps.
func e06Throughput() core.Experiment {
	return &exp{
		id:    "E06",
		title: "Throughput: permissionless chains vs partitioned cloud",
		claim: "§III-C P2: while VISA processes 24,000 transactions per second, Bitcoin can process between 3.3 and 7, and Ethereum around 15 — the consequence of a broadcast network where all nodes validate all transactions.",
		run: func(cfg core.Config, r *core.Result) error {
			tab := metrics.NewTable("sustained throughput (tps)",
				"system", "mechanism", "tps", "paper reference")
			btcLow := pow.BitcoinParams(500)
			btcHigh := pow.BitcoinParams(240)
			eth := pow.EthereumParams()
			tab.AddRowf("bitcoin (500B txs)", "1MB blocks / 600s, global broadcast", btcLow.TPS(), "3.3")
			tab.AddRowf("bitcoin (240B txs)", "1MB blocks / 600s, global broadcast", btcHigh.TPS(), "7")
			tab.AddRowf("ethereum", "8M gas / 14s, global broadcast", eth.TPS(), "~15")

			// Part 0 is an actual PoW mining run with Bitcoin parameters,
			// part 1 a sharded cloud cluster absorbing VISA's load.
			type measured struct {
				tps float64
				p99 time.Duration
			}
			shards := e06Shards.get(cfg)
			runs, err := fanOut(cfg, 2, func(i int) (measured, error) {
				s := newSim(cfg)
				if i == 0 {
					nw, err := pow.NewNetwork(s, pow.Params{
						BlockInterval:     10 * time.Minute,
						BlockSize:         1_000_000,
						AvgTxSize:         e06TxBytes.get(cfg),
						InitialDifficulty: 600,
					}, []float64{0.3, 0.25, 0.2, 0.15, 0.1})
					if err != nil {
						return measured{}, err
					}
					nw.Start()
					blocks := e06Blocks.get(cfg)
					if err := s.RunUntil(time.Duration(blocks) * 10 * time.Minute); err != nil {
						return measured{}, err
					}
					nw.Stop()
					return measured{tps: nw.Finalize().TPS}, nil
				}
				cluster, err := cloudbase.NewCluster(s, cloudbase.Config{
					Shards:         shards,
					CrossShardFrac: e06CrossShard.get(cfg),
				})
				if err != nil {
					return measured{}, err
				}
				dur := time.Duration(cfg.ScaleInt(10)) * time.Second
				if dur < 2*time.Second {
					dur = 2 * time.Second
				}
				cst, err := cluster.Run(pow.VisaReferenceTPS, dur)
				return measured{cst.TPS, cst.P99}, err
			})
			if err != nil {
				return err
			}
			st, cst := runs[0], runs[1]
			tab.AddRowf("bitcoin (simulated)", "event-driven mining network", st.tps, "3.3-7")
			tab.AddRowf("cloud OLTP (simulated)", fmt.Sprintf("%d shards, partitioned, trusted", shards), cst.tps, "24000 (VISA)")
			tab.AddNote("p99 latency on the cloud baseline: %v at full VISA load", cst.p99)
			r.Tables = append(r.Tables, tab)

			gap := cst.tps / st.tps
			r.AddCheck(st.tps >= 2 && st.tps <= 9, "bitcoin-tps-range",
				"simulated bitcoin %.1f tps (paper 3.3-7)", st.tps)
			r.AddCheck(eth.TPS() >= 12 && eth.TPS() <= 18, "ethereum-tps",
				"ethereum model %.1f tps (paper ~15)", eth.TPS())
			r.AddCheck(gap >= 1000, "cloud-gap-three-orders",
				"cloud/bitcoin gap %.0fx (>=1000x)", gap)
			return nil
		},
	}
}

// e07Difficulty reproduces §III-A: the difficulty target is periodically
// adjusted so a block appears every ~10 minutes regardless of hashpower.
func e07Difficulty() core.Experiment {
	return &exp{
		id:    "E07",
		title: "Difficulty retargeting under exponential hashpower growth",
		claim: "§III-A: the difficulty target is periodically adjusted in such a way that a new block is generated every 10 minutes.",
		run: func(cfg core.Config, r *core.Result) error {
			s := newSim(cfg)
			const target = 10 * time.Minute
			// The retarget window scales with the run so adjustment lag
			// stays proportional at reduced scales.
			window := e07Window.get(cfg)
			nw, err := pow.NewNetwork(s, pow.Params{
				BlockInterval:     target,
				InitialDifficulty: 600 * 1, // hashrate 1 => on-target at start
				RetargetWindow:    window,
			}, []float64{1})
			if err != nil {
				return err
			}
			nw.Start()
			epochs := e07Epochs.get(cfg)
			epochBlocks := e07EpochBlocks.get(cfg)
			epochLen := time.Duration(epochBlocks) * target
			for e := 1; e <= epochs; e++ {
				e := e
				s.At(time.Duration(e)*epochLen, func() {
					nw.SetHashrate(0, math.Pow(2, float64(e)))
				})
			}
			horizon := time.Duration(epochs+3) * epochLen
			// Sample the interval per epoch.
			tab := metrics.NewTable("difficulty tracking (simulated)",
				"epoch", "hashrate", "difficulty", "blocks so far")
			for e := 0; e <= epochs; e++ {
				e := e
				s.At(time.Duration(e)*epochLen+epochLen-1, func() {
					tab.AddRowf(e, nw.TotalHashrate(), nw.Difficulty(), nw.Chain().BestHeight())
				})
			}
			if err := s.RunUntil(horizon); err != nil {
				return err
			}
			nw.Stop()
			st := nw.Finalize()
			r.Tables = append(r.Tables, tab)

			ideal := math.Pow(2, float64(epochs)) * target.Seconds()
			ratio := nw.Difficulty() / ideal
			r.AddCheck(ratio > 0.4 && ratio < 2.5, "difficulty-tracks-hashrate",
				"final difficulty %.0f vs ideal %.0f (ratio %.2f) after %.0fx growth",
				nw.Difficulty(), ideal, ratio, math.Pow(2, float64(epochs)))
			meanErr := math.Abs(st.MeanInterval.Seconds()-target.Seconds()) / target.Seconds()
			r.AddCheck(meanErr < 0.35, "interval-near-target",
				"overall mean interval %.0fs vs 600s target (adjustment lag included)", st.MeanInterval.Seconds())
			return nil
		},
	}
}

// e08ForkRate reproduces the §III-C trilemma mechanics: pushing throughput
// up (shorter intervals / bigger blocks) raises the stale rate and erodes
// security.
func e08ForkRate() core.Experiment {
	return &exp{
		id:    "E08",
		title: "Fork rate vs block interval — the trilemma's mechanics",
		claim: "§III-C P2: a completely open network of thousands of heterogeneous nodes is a serious burden for performance (Buterin's scalability trilemma: scalability, decentralization, security — pick two).",
		run: func(cfg core.Config, r *core.Result) error {
			blocks := e08Blocks.get(cfg)
			// ~1MB over a global gossip mesh by default.
			propagation := time.Duration(e08Propagation.get(cfg) * float64(time.Second))
			mixIdx := e08Mix.get(cfg)
			loss := e08Loss.get(cfg) // > 0 only with a WAN relay (KnobSpec.Requires)
			hashrates := []float64{0.25, 0.25, 0.2, 0.15, 0.15}
			tab := metrics.NewTable(fmt.Sprintf("stale rate vs block interval (%s propagation, simulated)", propagation),
				"interval", "throughput gain", "stale rate (sim)", "stale rate (model)", "honest share needed to attack")
			fig := &metrics.Figure{Title: "stale rate", XLabel: "propagation/interval", YLabel: "stale rate"}
			var rates []float64
			for _, interval := range []time.Duration{600 * time.Second, 60 * time.Second, 12 * time.Second} {
				s := newSim(cfg)
				params := pow.Params{
					BlockInterval:     interval,
					BlockSize:         1_000_000,
					InitialDifficulty: interval.Seconds(), // total hashrate 1
					Propagation: func(g *sim.RNG, size int) time.Duration {
						return g.Jitter(propagation, 0.4)
					},
				}
				var nw *pow.Network
				if mixIdx > 0 {
					// WAN-backed relay: miners sit on a regional topology
					// with loss/partition semantics. Copies serialize on
					// the uplink, so the k-th of the m other miners waits
					// k transfers; sizing the per-copy time at
					// 2*propagation/(m+1) puts the MEAN receiver delay at
					// ~propagation, the abstract model's timescale.
					mix, err := netmodel.MixPreset(mixIdx)
					if err != nil {
						return err
					}
					nm := netmodel.New(s, netmodel.WithJitter(0.4))
					nm.SetLoss(loss)
					upBps := float64(4*params.BlockSize*len(hashrates)) / propagation.Seconds()
					addrs, err := nm.BuildTopology(netmodel.TopologySpec{
						Nodes: len(hashrates),
						Mix:   mix,
						Classes: []netmodel.BandwidthClass{
							{Name: "miner", UplinkBps: upBps, Weight: 1},
						},
					})
					if err != nil {
						return err
					}
					nw, err = pow.NewNetworkOverNet(s, nm, addrs, params, hashrates)
					if err != nil {
						return err
					}
				} else {
					var err error
					if nw, err = pow.NewNetwork(s, params, hashrates); err != nil {
						return err
					}
				}
				nw.Start()
				if err := s.RunUntil(time.Duration(blocks) * interval); err != nil {
					return err
				}
				nw.Stop()
				st := nw.Finalize()
				model := pow.StaleRateModel(propagation, interval)
				tab.AddRowf(interval.String(),
					600*time.Second/interval,
					st.StaleRate, model,
					pow.EffectiveSecurityShare(st.StaleRate))
				fig.Add("sim", propagation.Seconds()/interval.Seconds(), st.StaleRate)
				fig.Add("1-exp(-d/i)", propagation.Seconds()/interval.Seconds(), model)
				rates = append(rates, st.StaleRate)
			}
			r.Tables = append(r.Tables, tab)
			r.Figures = append(r.Figures, fig)
			// Message loss adds a near-interval-independent stale floor (a
			// miner that misses a block mines blind until the next one
			// arrives), so with loss enabled the low-stale bound shifts by
			// the loss rate and the growth check compares absolute growth
			// above the floor instead of the lossless 5x ratio. At the
			// lossless default the bounds are exactly the historical ones.
			r.AddCheck(rates[0] < 0.03+loss, "bitcoin-params-low-stale",
				"stale rate %.3f at 600s intervals", rates[0])
			worst := rates[len(rates)-1]
			growthOK := worst > 5*rates[0]
			if loss > 0 {
				growthOK = worst >= rates[0]+0.03
			}
			r.AddCheck(growthOK, "throughput-costs-consistency",
				"stale rate %.3f -> %.3f as interval shrinks 50x", rates[0], worst)
			// 1-e^(-d/i) assumes the whole network mines blind for the full
			// delay; with per-receiver delays and the finder switching
			// instantly it is an upper bound the simulation should approach
			// from below.
			model := pow.StaleRateModel(propagation, 12*time.Second)
			r.AddCheck(worst <= model*1.15+loss && worst >= model*0.45, "bounded-by-analytic-model",
				"sim %.3f vs upper-bound model %.3f at 12s intervals", worst, model)
			return nil
		},
	}
}

// e09Selfish reproduces §III-C Problem 1 (Eyal & Sirer): a colluding
// minority pool earns more than its fair share.
func e09Selfish() core.Experiment {
	return &exp{
		id:    "E09",
		title: "Selfish mining: majority is not enough",
		claim: "§III-C P1: the incentive mechanism of Bitcoin is flawed — a minority colluding pool can obtain more revenue than the pool's fair share (Eyal & Sirer).",
		run: func(cfg core.Config, r *core.Result) error {
			g := sim.NewRNG(cfg.Seed)
			blocks := e09Blocks.get(cfg)
			tab := metrics.NewTable("selfish mining revenue share (simulated vs closed form)",
				"alpha", "gamma", "revenue (sim)", "revenue (Eyal-Sirer eq.8)", "fair share", "profitable")
			fig := &metrics.Figure{Title: "selfish mining", XLabel: "alpha", YLabel: "revenue share"}
			var maxDelta float64
			var profitableBelow, unprofitableAbove bool
			gamma2 := e09Gamma.get(cfg)
			for _, gamma := range []float64{0, gamma2} {
				for _, alpha := range []float64{0.15, 0.25, 0.3, 0.35, 0.4, 0.45} {
					out, err := pow.SimulateSelfishMining(g, alpha, gamma, blocks)
					if err != nil {
						return err
					}
					closed := pow.SelfishRevenueClosedForm(alpha, gamma)
					delta := math.Abs(out.RevenueShare - closed)
					if delta > maxDelta {
						maxDelta = delta
					}
					tab.AddRowf(alpha, gamma, out.RevenueShare, closed, alpha, out.Profitable())
					if gamma == 0 {
						fig.Add("sim γ=0", alpha, out.RevenueShare)
						fig.Add("fair", alpha, alpha)
						threshold := pow.SelfishThreshold(gamma)
						if alpha < threshold && out.Profitable() {
							profitableBelow = true
						}
						if alpha > threshold+0.02 && !out.Profitable() {
							unprofitableAbove = true
						}
					}
				}
			}
			if gamma2 == 0.5 {
				tab.AddNote("threshold (gamma=0) = 1/3; (gamma=0.5) = 1/4")
			} else {
				tab.AddNote("threshold (gamma=0) = 1/3; (gamma=%g) = %.4g", gamma2, pow.SelfishThreshold(gamma2))
			}
			r.Tables = append(r.Tables, tab)
			r.Figures = append(r.Figures, fig)
			r.AddCheck(maxDelta < 0.015, "matches-closed-form",
				"max |sim - closed form| = %.4f", maxDelta)
			r.AddCheck(!profitableBelow && !unprofitableAbove, "one-third-threshold",
				"profitability flips exactly at alpha = 1/3 for gamma = 0")
			return nil
		},
	}
}

// e17DoubleSpend reproduces Nakamoto's §11 arithmetic as referenced by the
// paper's §III-A immutability discussion.
func e17DoubleSpend() core.Experiment {
	return &exp{
		id:    "E17",
		title: "Double-spend probability vs confirmations",
		claim: "§III-A: modifying the chain requires redoing the proof-of-work for the block and all that follow — a feat possible only with more than half the computing power (Nakamoto's confirmation analysis).",
		run: func(cfg core.Config, r *core.Result) error {
			g := sim.NewRNG(cfg.Seed)
			trials := e17Trials.get(cfg)
			risk := e17Risk.get(cfg)
			tab := metrics.NewTable("double-spend success probability",
				"attacker share q", "z", "Nakamoto closed form", "exact race", "monte carlo")
			var maxDelta float64
			for _, q := range []float64{0.1, 0.3, 0.45} {
				for _, z := range []int{1, 2, 6, 10} {
					nak := pow.DoubleSpendProbability(q, z)
					exact := pow.DoubleSpendProbabilityExact(q, z)
					mc, err := pow.SimulateDoubleSpend(g, q, z, trials)
					if err != nil {
						return err
					}
					if d := math.Abs(mc - exact); d > maxDelta {
						maxDelta = d
					}
					tab.AddRowf(q, z, nak, exact, mc)
				}
			}
			tab.AddNote("confirmations needed for <%g%% risk: q=0.1 -> %d, q=0.3 -> %d, q=0.45 -> %d",
				risk*100,
				pow.ConfirmationsForRisk(0.1, risk, 1000),
				pow.ConfirmationsForRisk(0.3, risk, 1000),
				pow.ConfirmationsForRisk(0.45, risk, 1000))
			r.Tables = append(r.Tables, tab)
			r.AddCheck(maxDelta < 0.02, "monte-carlo-matches-exact",
				"max |mc - exact| = %.4f", maxDelta)
			r.AddCheck(pow.ConfirmationsForRisk(0.1, 0.001, 100) == 5, "nakamoto-z5",
				"q=0.1 needs 5 confirmations for <0.1%% (Nakamoto's table)")
			r.AddCheck(pow.DoubleSpendProbability(0.5, 100) == 1, "majority-always-wins",
				"q>=0.5 succeeds with probability 1 at any depth")
			return nil
		},
	}
}
