package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/pow"
)

// e19GeoPartitionedPoW stresses the assumption every permissionless claim
// rests on: that the wide-area network delivers blocks to everyone in time.
// Miners are placed on a regional topology and relay blocks over the shared
// WAN transport; a scheduled partition cuts the Americas off mid-run, both
// sides keep mining their own chains, and at heal the losing side's work is
// discarded as stale blocks.
func e19GeoPartitionedPoW() core.Experiment {
	return &exp{
		id:    "E19",
		title: "Geo-partitioned proof-of-work mining",
		claim: "§III-A: a block is broadcast to the network so that other nodes can verify it — permissionless consensus presumes timely global broadcast among thousands of heterogeneous nodes, so a wide-area partition splinters the single chain into competing forks and the weaker region's proof-of-work is discarded.",
		run: func(cfg core.Config, r *core.Result) error {
			miners := knobInt(cfg, "e19.miners")
			blocks := scaledSize(cfg, "e19.blocks")
			mixIdx := knobInt(cfg, "e19.mix")
			loss := knobFloat(cfg, "e19.loss")
			startFrac := knobFloat(cfg, "e19.partstart")
			durFrac := knobFloat(cfg, "e19.partdur")
			if startFrac+durFrac > 0.9 {
				return fmt.Errorf("e19.partstart=%g + e19.partdur=%g leaves no room to heal (must be <= 0.9)", startFrac, durFrac)
			}
			mix, err := netmodel.MixPreset(mixIdx)
			if err != nil {
				return err
			}
			const interval = 10 * time.Minute
			horizon := time.Duration(blocks) * interval
			winStart := time.Duration(startFrac * float64(horizon))
			winEnd := winStart + time.Duration(durFrac*float64(horizon))
			hashrates := make([]float64, miners)
			for i := range hashrates {
				hashrates[i] = 1.0 / float64(miners)
			}

			type outcome struct {
				st            pow.Stats
				minorityShare float64
				heightAtHeal  uint64
			}
			run := func(partition bool) (outcome, error) {
				var out outcome
				s := newSim(cfg)
				nm := netmodel.New(s, netmodel.WithJitter(0.1))
				nm.SetLoss(loss)
				addrs, err := nm.BuildTopology(netmodel.TopologySpec{Nodes: miners, Mix: mix})
				if err != nil {
					return out, err
				}
				nw, err := pow.NewNetworkOverNet(s, nm, addrs, pow.Params{
					BlockInterval:     interval,
					InitialDifficulty: interval.Seconds(), // total hashrate 1 -> on-target
				}, hashrates)
				if err != nil {
					return out, err
				}
				// The Atlantic cut: the Americas against the rest of the
				// world. Every mix preset populates both sides.
				groups := make(map[netmodel.NodeID]int, len(addrs))
				cut := 0
				for _, addr := range addrs {
					region := nm.Region(addr)
					if region == netmodel.NorthAmerica || region == netmodel.SouthAmerica {
						groups[addr] = 1
						cut++
					}
				}
				out.minorityShare = float64(cut) / float64(miners)
				if out.minorityShare > 0.5 {
					out.minorityShare = 1 - out.minorityShare
				}
				if partition {
					if err := nm.SchedulePartitionWindow(winStart, winEnd, groups); err != nil {
						return out, err
					}
				}
				s.At(winEnd, func() { out.heightAtHeal = nw.Chain().BestHeight() })
				nw.Start()
				if err := s.RunUntil(horizon); err != nil {
					return out, err
				}
				nw.Stop()
				out.st = nw.Finalize()
				return out, nil
			}

			base, err := run(false)
			if err != nil {
				return err
			}
			part, err := run(true)
			if err != nil {
				return err
			}

			tab := metrics.NewTable(
				fmt.Sprintf("geo-partitioned mining (%d miners, mix %d, %.0f%%–%.0f%% partition window, simulated)",
					miners, mixIdx, startFrac*100, (startFrac+durFrac)*100),
				"scenario", "blocks found", "best height", "stale blocks", "stale rate")
			tab.AddRowf("connected WAN", base.st.BlocksFound, base.st.BestHeight, base.st.StaleBlocks, base.st.StaleRate)
			tab.AddRowf("partitioned window", part.st.BlocksFound, part.st.BestHeight, part.st.StaleBlocks, part.st.StaleRate)
			tab.AddNote("Atlantic cut isolates %.0f%% of hashrate for %.0f%% of the run; loss %.1f%%",
				part.minorityShare*100, durFrac*100, loss*100)
			r.Tables = append(r.Tables, tab)
			r.AddMetric("stale-rate-baseline", base.st.StaleRate)
			r.AddMetric("stale-rate-partitioned", part.st.StaleRate)
			r.AddMetric("minority-share", part.minorityShare)

			windowBlocks := durFrac * float64(blocks)
			expectedMinority := part.minorityShare * windowBlocks
			extraStale := part.st.StaleBlocks - base.st.StaleBlocks
			// Without retransmission a miner misses each block with
			// probability ~loss and forks until the next one reaches it,
			// so the convergence bound scales with the loss knob.
			convergeBound := 0.05 + loss
			r.AddCheck(base.st.StaleRate < convergeBound, "connected-wan-converges",
				"stale rate %.4f (bound %.2f at %.0f%% loss) with ms-scale relay and %v intervals",
				base.st.StaleRate, convergeBound, loss*100, interval)
			r.AddCheck(float64(extraStale) >= 0.25*expectedMinority, "partition-forks-the-chain",
				"partition adds %d stale blocks (expected ~%.0f: the losing side's window output)",
				extraStale, expectedMinority)
			r.AddCheck(part.st.BestHeight < base.st.BestHeight, "partition-costs-throughput",
				"best height %d partitioned vs %d connected — orphaned work is lost capacity",
				part.st.BestHeight, base.st.BestHeight)
			postWindow := (1 - startFrac - durFrac) * float64(blocks)
			healGrowth := float64(part.st.BestHeight) - float64(part.heightAtHeal)
			r.AddCheck(healGrowth >= 0.5*postWindow, "chain-heals-after-window",
				"best chain grew %d blocks after heal (expected ~%.0f)", int(healGrowth), postWindow)
			return nil
		},
	}
}
