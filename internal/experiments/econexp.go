package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/econ"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// e10MiningCentralization reproduces §III-C Problem 1: the mining arms race
// concentrates hashpower into industrial farms and a handful of pools.
func e10MiningCentralization() core.Experiment {
	return &exp{
		id:    "E10",
		title: "Mining centralization: farms and pools take over",
		claim: "§III-C P1: in 2013 six mining pools controlled 75% of overall Bitcoin hashing power; nowadays it is almost impossible for a normal user to mine with a desktop computer.",
		run: func(cfg core.Config, r *core.Result) error {
			g := sim.NewRNG(cfg.Seed)
			hobbyists := scaledSize(cfg, "e10.hobbyists")
			farms := scaledSize(cfg, "e10.farms")
			res, err := econ.RunMiningEconomy(g, econ.MiningEconConfig{
				Epochs:            knobInt(cfg, "e10.epochs"),
				RewardUSDPerEpoch: 5_000_000,
				Hobbyists:         hobbyists,
				Farms:             farms,
			})
			if err != nil {
				return err
			}
			tab := metrics.NewTable("mining arms race (simulated, 1 epoch = 1 month)",
				"epoch", "network hashrate", "hobbyists active", "hobbyist profit ($/mo)", "farm share")
			for _, e := range res.Epochs {
				if e.Epoch%4 == 0 || e.Epoch == len(res.Epochs)-1 {
					tab.AddRowf(e.Epoch, e.NetworkHash, e.HobbyistsActive, e.HobbyistProfit, e.FarmShare)
				}
			}
			r.Tables = append(r.Tables, tab)

			miners := scaledSize(cfg, "e10.miners")
			pool, err := econ.RunPoolFormation(g, econ.PoolConfig{
				Pools:     20,
				Miners:    miners,
				SizeBias:  1.3,
				FeeSpread: 0.3,
			})
			if err != nil {
				return err
			}
			tab2 := metrics.NewTable("pool concentration (simulated)",
				"metric", "value", "paper reference")
			tab2.AddRowf("top-6 pool share", pool.Top6, "0.75 (2013)")
			tab2.AddRowf("HHI", pool.HHI, ">0.25 = highly concentrated")
			r.Tables = append(r.Tables, tab2)

			first := res.Epochs[0]
			last := res.Epochs[len(res.Epochs)-1]
			r.AddCheck(last.HobbyistsActive < first.HobbyistsActive/4, "desktops-priced-out",
				"hobbyists %d -> %d after ASIC epochs", first.HobbyistsActive, last.HobbyistsActive)
			r.AddCheck(res.FinalFarmShare > 0.95, "industrial-dominance",
				"farm hashrate share %.3f", res.FinalFarmShare)
			r.AddCheck(pool.Top6 >= 0.6, "six-pools-dominate",
				"top-6 pools hold %.0f%% (paper: 75%%)", pool.Top6*100)
			return nil
		},
	}
}

// e11Energy reproduces §III-B: Bitcoin's energy consumption peaked around
// 70 TWh/yr — a country's worth.
func e11Energy() core.Experiment {
	return &exp{
		id:    "E11",
		title: "Proof-of-work energy at economic equilibrium",
		claim: "§III-B: Bitcoin energy consumption peaked at 70 TWh in 2018, roughly what a country like Austria consumes.",
		run: func(cfg core.Config, r *core.Result) error {
			tab := metrics.NewTable("equilibrium energy model",
				"coin price ($)", "network power (GW)", "annual energy (TWh)", "kWh per transaction")
			base := econ.Bitcoin2018Energy()
			midPrice := knobFloat(cfg, "e11.price")
			tps := knobFloat(cfg, "e11.tps")
			var baselineTWh float64
			for _, price := range []float64{midPrice / 2, midPrice, midPrice * 2} {
				p := base
				p.CoinPriceUSD = price
				gw, err := p.NetworkPowerGW()
				if err != nil {
					return err
				}
				twh, err := p.AnnualTWh()
				if err != nil {
					return err
				}
				perTx, err := p.PerTxKWh(tps)
				if err != nil {
					return err
				}
				if price == midPrice {
					baselineTWh = twh
				}
				tab.AddRowf(price, gw, twh, perTx)
			}
			tab.AddNote("Austria's annual electricity consumption: ~70 TWh (the paper's comparison)")
			r.Tables = append(r.Tables, tab)
			r.AddCheck(baselineTWh >= 40 && baselineTWh <= 100, "austria-scale",
				"2018-like parameters give %.0f TWh/yr (paper: ~70)", baselineTWh)
			perTx, err := base.PerTxKWh(tps)
			if err != nil {
				return err
			}
			r.AddCheck(perTx > 100, "absurd-per-tx-energy",
				"%.0f kWh per transaction — weeks of household consumption", perTx)
			return nil
		},
	}
}

// e12NodeCost reproduces §III-C Problem 1: each node needs ever more
// storage/bandwidth, so networks retag members as light clients while the
// validating core shrinks.
func e12NodeCost() core.Experiment {
	return &exp{
		id:    "E12",
		title: "Node resource growth erodes the validating population",
		claim: "§III-C P1: as the history of transactions grows, each node requires more bandwidth, storage and computing power; networks retag nodes as light nodes but still count them in the global network size metrics.",
		run: func(cfg core.Config, r *core.Result) error {
			g := sim.NewRNG(cfg.Seed)
			nodes := scaledSize(cfg, "e12.nodes")
			txBytes := knobInt(cfg, "e12.txbytes")
			years := knobInt(cfg, "e12.years")
			tab := metrics.NewTable("full-node fraction over ten years (simulated)",
				"throughput", "chain growth (GB/yr)", "full frac year 0", fmt.Sprintf("full frac year %d", years))
			fig := &metrics.Figure{Title: "full-node erosion", XLabel: "year", YLabel: "full-node fraction"}
			var bitcoinEnd, scaledEnd float64
			for _, tps := range []float64{4, 100, 4000} {
				res, err := econ.RunNodeCostModel(g, econ.NodeCostParams{
					TPS:            tps,
					TxBytes:        txBytes,
					Years:          years,
					Nodes:          nodes,
					DiskGBMedian:   knobFloat(cfg, "e12.diskgb"),
					InitialChainGB: 150,
				})
				if err != nil {
					return err
				}
				p := econ.NodeCostParams{TPS: tps, TxBytes: txBytes}
				tab.AddRowf(tps, p.ChainGrowthGBPerYear(), res.FullFracStart, res.FullFracEnd)
				for _, y := range res.Years {
					if tps == 4 || tps == 4000 {
						name := "bitcoin-scale"
						if tps == 4000 {
							name = "visa-scale"
						}
						fig.Add(name, float64(y.Year), y.FullFrac)
					}
				}
				switch tps {
				case 4:
					bitcoinEnd = res.FullFracEnd
				case 4000:
					scaledEnd = res.FullFracEnd
				}
			}
			r.Tables = append(r.Tables, tab)
			r.Figures = append(r.Figures, fig)
			r.AddCheck(bitcoinEnd < 0.9, "erosion-at-bitcoin-scale",
				"full-node fraction falls to %.2f after %dy even at 4 tps", bitcoinEnd, years)
			r.AddCheck(scaledEnd < 0.05, "collapse-at-visa-scale",
				"at VISA-scale throughput only %.1f%% can validate — scaling by shrinking decentralization", scaledEnd*100)
			return nil
		},
	}
}
