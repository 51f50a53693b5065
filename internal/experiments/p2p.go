package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/econ"
	"repro/internal/incentive"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/overlay/chord"
	"repro/internal/overlay/gnutella"
	"repro/internal/overlay/kademlia"
	"repro/internal/overlay/onehop"
	"repro/internal/randdist"
	"repro/internal/sim"
	"repro/internal/sybil"
	"repro/internal/workload"
)

// e01Market reproduces §I: market concentration from preferential
// attachment (top-3 CDN ≈ 75%, top-1 cloud ≈ 33%).
func e01Market() core.Experiment {
	return &exp{
		id:    "E01",
		title: "Market concentration under preferential attachment",
		claim: "§I: >75% of the CDN market is controlled by three providers; five cloud providers hold ~60%; Amazon alone ~33% — a natural effect of preferential attachment.",
		run: func(cfg core.Config, r *core.Result) error {
			s := newSim(cfg)
			tab := metrics.NewTable("market concentration (simulated)",
				"market", "providers", "top1", "top3", "top5", "HHI", "gini")
			type scenario struct {
				name      string
				providers int
				sigma     float64
			}
			customers := e01Customers.get(cfg)
			var cdnTop3, cloudTop1, cloudTop5 float64
			for _, sc := range []scenario{
				{name: "cdn", providers: e01CDNProviders.get(cfg), sigma: 0.9},
				{name: "cloud", providers: e01CloudProviders.get(cfg), sigma: 0.8},
			} {
				res, err := econ.RunMarket(s.Stream("e01."+sc.name), econ.MarketConfig{
					Providers:    sc.providers,
					Customers:    customers,
					FitnessSigma: sc.sigma,
					Exploration:  e01Exploration.get(cfg),
				})
				if err != nil {
					return err
				}
				tab.AddRowf(sc.name, sc.providers, res.Top1, res.Top3, res.Top5, res.HHI, res.Gini)
				if sc.name == "cdn" {
					cdnTop3 = res.Top3
				} else {
					cloudTop1 = res.Top1
					cloudTop5 = res.Top5
				}
			}
			r.Tables = append(r.Tables, tab)
			r.AddCheck(cdnTop3 >= 0.6, "cdn-top3-majority",
				"top-3 CDN share %.2f (paper: ~0.75)", cdnTop3)
			r.AddCheck(cloudTop1 >= 0.15 && cloudTop1 <= 0.8, "cloud-dominant-player",
				"top-1 cloud share %.2f (paper: ~0.33; shape: one dominant player, not a monopoly)", cloudTop1)
			r.AddCheck(cloudTop5 >= 0.5, "cloud-top5-majority",
				"top-5 cloud share %.2f (paper: ~0.60)", cloudTop5)
			return nil
		},
	}
}

// e02FreeRiding reproduces §II-B Problem 1: free riding dominates without
// incentives; tit-for-tat penalizes it but only during downloads.
func e02FreeRiding() core.Experiment {
	return &exp{
		id:    "E02",
		title: "Free riding in unstructured overlays and the tit-for-tat fix",
		claim: "§II-B P1: free riding was extensively reported on Gnutella (most peers share nothing; a tiny minority serves most requests); BitTorrent's tit-for-tat enforces reciprocity, but only during the download.",
		run: func(cfg core.Config, r *core.Result) error {
			s := newSim(cfg)
			nm := netmodel.New(s, netmodel.WithJitter(0.1))
			n := e02Peers.get(cfg)
			nw, err := gnutella.NewNetwork(s, nm, n, gnutella.Config{TTL: 6})
			if err != nil {
				return err
			}
			g := s.Stream("e02")
			cat, err := workload.NewCatalogue(g, 300, 1.2, 1_000_000, 10_000_000)
			if err != nil {
				return err
			}
			// 66% free riders by default (Adar & Huberman's ~2/3); sharers'
			// library sizes are heavy-tailed — a few peers host huge
			// collections, which is what concentrates upload load on them.
			freeRiderFrac := e02FreeRiders.get(cfg)
			sharers := 0
			for i := 0; i < n; i++ {
				if g.Bool(freeRiderFrac) {
					continue
				}
				sharers++
				items := int(randdist.Pareto(g, 3, 1.0))
				if items > 200 {
					items = 200
				}
				for j := 0; j < items; j++ {
					nw.Share(i, cat.Pick())
				}
			}
			queries := e02Queries.get(cfg)
			found, msgs := 0, 0
			for q := 0; q < queries; q++ {
				origin := g.Intn(n)
				item := cat.Pick()
				nw.Query(origin, item, func(res gnutella.QueryResult) {
					msgs += res.Messages
					if res.Found {
						found++
						provider := res.Providers[g.Intn(len(res.Providers))]
						nw.RecordDownload(provider)
					}
				})
			}
			if err := s.Run(); err != nil {
				return err
			}
			uploads := nw.UploadCounts()
			top1pct := metrics.TopShare(uploads, n/100+1)
			gini := metrics.Gini(uploads)

			tab := metrics.NewTable("gnutella free riding (simulated)",
				"metric", "value", "paper reference")
			tab.AddRowf("free-rider fraction", 1-float64(sharers)/float64(n), "~2/3 share nothing")
			tab.AddRowf("top-1% peers' upload share", top1pct, "tiny minority serves most")
			tab.AddRowf("upload gini", gini, "extreme inequality")
			tab.AddRowf("query success rate", float64(found)/float64(queries), "best effort")
			tab.AddRowf("messages per query", float64(msgs)/float64(queries), "flooding cost")
			r.Tables = append(r.Tables, tab)

			// Tit-for-tat swarm: selfish universe (everyone leaves at
			// completion, the paper's point about incentives not outlasting
			// the download).
			swarmPeers := e02SwarmPeers.get(cfg)
			swarmCfg := incentive.SwarmConfig{
				Peers:         swarmPeers,
				FreeRiderFrac: e02SwarmFreeRiders.get(cfg),
			}
			g2 := s.Stream("e02.swarm")
			base, err := incentive.RunSwarm(g2, swarmCfg, 5000)
			if err != nil {
				return err
			}
			swarmCfg.TitForTat = true
			tft, err := incentive.RunSwarm(g2, swarmCfg, 5000)
			if err != nil {
				return err
			}
			tab2 := metrics.NewTable("bittorrent tit-for-tat (simulated swarm)",
				"protocol", "coop mean rounds", "free-rider mean rounds", "slowdown")
			tab2.AddRowf("no incentives", base.CooperatorRounds.Mean(), base.FreeRiderRounds.Mean(), base.SlowdownFactor())
			tab2.AddRowf("tit-for-tat", tft.CooperatorRounds.Mean(), tft.FreeRiderRounds.Mean(), tft.SlowdownFactor())
			r.Tables = append(r.Tables, tab2)

			// Shape: the top 1% of peers carry a grossly disproportionate
			// share of uploads (>=10x their population share).
			r.AddCheck(top1pct >= 0.10, "upload-concentration",
				"top-1%% of peers serve %.0f%% of uploads (%.0fx their population share)",
				top1pct*100, top1pct/0.01)
			r.AddCheck(base.SlowdownFactor() < 1.3, "free-riding-is-free-without-incentives",
				"baseline slowdown %.2f", base.SlowdownFactor())
			r.AddCheck(tft.SlowdownFactor() > 1.5 && tft.SlowdownFactor() > 1.4*base.SlowdownFactor(),
				"tit-for-tat-penalizes",
				"tit-for-tat slowdown %.2f vs baseline %.2f", tft.SlowdownFactor(), base.SlowdownFactor())
			return nil
		},
	}
}

// e03Streams is the number of sender streams in E03's legacy layout. E03's
// pinned outputs were recorded on eight logical shards of a windowed
// driver; one kernel reproduces them when it is seeded as shard 0 was and
// node i's sends draw from the "netmodel" stream shard i % e03Streams
// owned. DESIGN.md ("E03's stream layout") says when the layout can go.
const e03Streams = 8

// e03Layout returns the kernel seed and the sender streams of E03's legacy
// layout under the run's seed.
func e03Layout(seed int64) (int64, []*sim.RNG) {
	shardSeed := func(i int) int64 { return sim.DeriveSeed(seed, "shard:"+strconv.Itoa(i)) }
	streams := make([]*sim.RNG, e03Streams)
	for i := range streams {
		streams[i] = sim.NewRNG(sim.DeriveSeed(shardSeed(i), "netmodel"))
	}
	return shardSeed(0), streams
}

// e03DHTLookup reproduces §II-A (Jiménez et al.): KAD lookups within 5 s at
// the 90th percentile vs ~1 minute medians on the BitTorrent Mainline DHT.
func e03DHTLookup() core.Experiment {
	return &exp{
		id:    "E03",
		title: "DHT lookup latency: KAD vs BitTorrent Mainline parameterizations",
		claim: "§II-A: lookups were performed within 5 seconds 90% of the time in eMule's KAD, but the median lookup time was around a minute in both BitTorrent DHTs (Jiménez et al.).",
		run: func(cfg core.Config, r *core.Result) error {
			// Sweepable knobs; the spec defaults reproduce the documented
			// run and the shared scaffold enforces the measurement floors
			// for explicit values. The floors here clamp small -scale
			// values, whose purpose is a fast approximate run — but an
			// explicitly swept knob that still lands below the floor
			// after scaling is an error: clamping it would emit distinct
			// sweep groups with identical results.
			n := e03Nodes.get(cfg)
			lookups := e03Lookups.get(cfg)
			type deployment struct {
				sample    *metrics.Sample
				converged float64
			}
			measure := func(kcfg kademlia.Config, name string) (deployment, error) {
				seed, streams := e03Layout(cfg.Seed)
				s := newSimSeed(cfg, seed)
				nm := netmodel.New(s, netmodel.WithJitter(0.2), netmodel.WithSenderStreams(streams))
				nw := kademlia.NewNetwork(s, nm, kcfg)
				for i := 0; i < n; i++ {
					nw.AddNode(netmodel.Europe)
				}
				if err := nw.Bootstrap(); err != nil {
					return deployment{}, err
				}
				var sample metrics.Sample
				converged := 0
				g := s.Stream("e03." + name)
				for i := 0; i < lookups; i++ {
					// Origins must be responsive participants (measurement
					// studies instrument live clients).
					var origin *kademlia.Node
					for origin == nil || !origin.Responsive() {
						origin = nw.Nodes()[g.Intn(n)]
					}
					nw.Lookup(origin, overlay.RandomID(g), func(res kademlia.Result) {
						sample.AddDuration(res.Latency)
						if res.Converged {
							converged++
						}
					})
				}
				if err := s.Run(); err != nil {
					return deployment{}, err
				}
				return deployment{&sample, float64(converged) / float64(lookups)}, nil
			}
			deps, err := fanOut(cfg, 2, func(i int) (deployment, error) {
				if i == 0 {
					return measure(kademlia.KADConfig(), "kad")
				}
				return measure(kademlia.MDHTConfig(), "mdht")
			})
			if err != nil {
				return err
			}
			kad, kadOK := deps[0].sample, deps[0].converged
			mdht, mdhtOK := deps[1].sample, deps[1].converged
			tab := metrics.NewTable("DHT lookup latency (seconds, simulated)",
				"deployment", "median", "p90", "converged", "paper reference")
			tab.AddRowf("KAD-like", kad.Median(), kad.Percentile(90), kadOK, "<=5s at p90")
			tab.AddRowf("MDHT-like", mdht.Median(), mdht.Percentile(90), mdhtOK, "median ~60s")
			r.Tables = append(r.Tables, tab)
			// Full-precision scalars for multi-seed aggregation.
			r.AddMetric("kad.median.s", kad.Median())
			r.AddMetric("kad.p90.s", kad.Percentile(90))
			r.AddMetric("mdht.median.s", mdht.Median())
			r.AddMetric("mdht.p90.s", mdht.Percentile(90))

			r.AddCheck(kad.Percentile(90) <= 5, "kad-p90-under-5s",
				"KAD p90 %.2fs", kad.Percentile(90))
			r.AddCheck(mdht.Median() >= 20, "mdht-median-tens-of-seconds",
				"MDHT median %.1fs (paper ~60s)", mdht.Median())
			ratio := mdht.Median() / kad.Median()
			r.AddCheck(ratio >= 10, "mdht-kad-gap",
				"median ratio %.0fx (same protocol, different deployment hygiene)", ratio)
			return nil
		},
	}
}

// e04Sybil reproduces §II-B Problem 3: open identifier assignment lets an
// attacker intercept lookups and eclipse keys.
func e04Sybil() core.Experiment {
	return &exp{
		id:    "E04",
		title: "Sybil and eclipse attacks on an open DHT",
		claim: "§II-B P3: open networks where peers assign their own identities are prone to sybil attacks; massive identity problems were reported in eMule KAD and the BitTorrent DHTs.",
		run: func(cfg core.Config, r *core.Result) error {
			honest := e04Honest.get(cfg)
			lookups := e04Lookups.get(cfg)
			targetIDs := e04TargetIDs.get(cfg)
			target := overlay.KeyID([]byte("victim"))
			levels := []float64{0.05, 0.2, 0.5}
			// Parts 0..2 spread identities uniformly at each level; the
			// last part aims a handful of identities at one key, on a
			// kernel seeded one past the run's.
			stats, err := fanOut(cfg, len(levels)+1, func(i int) (sybil.EclipseStats, error) {
				seed, stream := cfg.Seed+1, "e04t"
				acfg := sybil.AttackConfig{Identities: targetIDs, Targeted: true, Target: target}
				if i < len(levels) {
					seed, stream = cfg.Seed, "e04"
					acfg = sybil.AttackConfig{Identities: int(levels[i] * float64(honest))}
				}
				var stats sybil.EclipseStats
				s := newSimSeed(cfg, seed)
				nm := netmodel.New(s, netmodel.WithJitter(0.1))
				nw := kademlia.NewNetwork(s, nm, kademlia.Config{K: 8, Alpha: 3, UnresponsiveFrac: 0})
				for range honest {
					nw.AddNode(netmodel.Europe)
				}
				if err := nw.Bootstrap(); err != nil {
					return stats, err
				}
				atk, err := sybil.Launch(s, nw, acfg)
				if err != nil {
					return stats, err
				}
				if err := s.Run(); err != nil {
					return stats, err
				}
				g := s.Stream(stream)
				for range lookups {
					origin := nw.Nodes()[g.Intn(honest)]
					key := target
					if !acfg.Targeted {
						key = overlay.RandomID(g)
					}
					nw.Lookup(origin, key, func(res kademlia.Result) { stats.Record(atk, res) })
				}
				return stats, s.Run()
			})
			if err != nil {
				return err
			}
			tab := metrics.NewTable("sybil interception vs identity count (simulated)",
				"sybil identities", "% of network", "mean attacker frac in results", "majority-poisoned rate")
			fig := &metrics.Figure{Title: "sybil interception", XLabel: "sybil fraction", YLabel: "attacker frac"}
			for i, pct := range levels {
				tab.AddRowf(int(pct*float64(honest)), pct*100, stats[i].MeanAttackerFrac(), stats[i].MajorityRate())
				fig.Add("uniform sybil", pct, stats[i].MeanAttackerFrac())
			}
			r.Tables = append(r.Tables, tab)
			r.Figures = append(r.Figures, fig)

			eclipse := stats[len(levels)]
			tab2 := metrics.NewTable(fmt.Sprintf("targeted eclipse of one key (%d identities)", targetIDs),
				"metric", "value")
			tab2.AddRowf("closest-is-attacker rate", eclipse.ClosestRate())
			tab2.AddRowf("majority-poisoned rate", eclipse.MajorityRate())
			r.Tables = append(r.Tables, tab2)

			low, high := stats[0].MeanAttackerFrac(), stats[len(levels)-1].MeanAttackerFrac()
			r.AddCheck(high > low, "interception-grows",
				"attacker fraction %.2f -> %.2f as identities grow", low, high)
			r.AddCheck(eclipse.ClosestRate() >= 0.7, "targeted-eclipse",
				"%d identities eclipse the key in %.0f%% of lookups", targetIDs, eclipse.ClosestRate()*100)
			return nil
		},
	}
}

// e05OneHop reproduces §II-B (Gupta et al.): full-membership one-hop
// routing is feasible at 10k–100k nodes and beats multi-hop DHTs when the
// network is reasonably stable.
func e05OneHop() core.Experiment {
	return &exp{
		id:    "E05",
		title: "One-hop overlays vs multi-hop DHTs",
		claim: "§II-B: for networks between 10K and 100K nodes it is possible to keep full membership and route in one hop (Gupta et al.); if the overlay is relatively stable, O(1) routing is the right decision.",
		run: func(cfg core.Config, r *core.Result) error {
			n := e05Nodes.get(cfg)
			lookups := e05Lookups.get(cfg)
			// Chord: hops and latency.
			s := newSim(cfg)
			nm := netmodel.New(s, netmodel.WithJitter(0.1))
			cnw := chord.NewNetwork(s, nm, chord.Config{})
			for i := 0; i < n; i++ {
				cnw.AddNode(netmodel.Europe)
			}
			if err := cnw.Build(); err != nil {
				return err
			}
			var chordHops metrics.Sample
			var chordLat metrics.Sample
			g := s.Stream("e05")
			for i := 0; i < lookups; i++ {
				origin := cnw.Nodes()[g.Intn(n)]
				cnw.Lookup(origin, g.Uint64(), func(res chord.Result) {
					if res.OK {
						chordHops.Add(float64(res.Hops))
						chordLat.AddDuration(res.Latency)
					}
				})
			}
			if err := s.Run(); err != nil {
				return err
			}
			// One-hop: attempts and latency.
			s2 := newSim(cfg)
			nm2 := netmodel.New(s2, netmodel.WithJitter(0.1))
			onw := onehop.NewNetwork(s2, nm2, onehop.Config{})
			for i := 0; i < n; i++ {
				onw.AddNode(netmodel.Europe)
			}
			if err := onw.Build(); err != nil {
				return err
			}
			var ohAttempts, ohLat metrics.Sample
			g2 := s2.Stream("e05")
			for i := 0; i < lookups; i++ {
				origin := onw.Nodes()[g2.Intn(n)]
				onw.Lookup(origin, g2.Uint64(), func(res onehop.Result) {
					if res.OK {
						ohAttempts.Add(float64(res.Attempts))
						ohLat.AddDuration(res.Latency)
					}
				})
			}
			if err := s2.Run(); err != nil {
				return err
			}
			tab := metrics.NewTable(fmt.Sprintf("lookup cost at n=%d (simulated)", n),
				"overlay", "mean hops", "median latency (s)")
			tab.AddRowf("chord (multi-hop)", chordHops.Mean(), chordLat.Median())
			tab.AddRowf("one-hop", ohAttempts.Mean(), ohLat.Median())
			r.Tables = append(r.Tables, tab)

			// Maintenance bandwidth: analytic one-hop model at the paper's
			// scales, with one-hour mean sessions by default (a "relatively
			// stable" corporate-style network).
			session := time.Duration(e05SessionMins.get(cfg)) * time.Minute
			tab2 := metrics.NewTable(fmt.Sprintf("one-hop maintenance bandwidth (analytic, %s sessions)", sessionLabel(session)),
				"n", "ordinary node (kbit/s)", "unit leader (kbit/s)", "slice leader (kbit/s)")
			var ordinary100k float64
			for _, size := range []int{10_000, 100_000} {
				p := onehop.MaintenanceParams{
					N: size, MeanSession: session, MeanGap: session,
				}
				ord := p.OrdinaryBps() / 1000
				if size == 100_000 {
					ordinary100k = ord
				}
				tab2.AddRowf(size, ord, p.UnitLeaderBps()/1000, p.SliceLeaderBps()/1000)
			}
			r.Tables = append(r.Tables, tab2)

			r.AddCheck(ohAttempts.Mean() < 1.2, "one-hop-is-one-hop",
				"mean attempts %.2f", ohAttempts.Mean())
			r.AddCheck(chordHops.Mean() >= 3, "chord-multi-hop",
				"chord mean hops %.1f (O(log n))", chordHops.Mean())
			r.AddCheck(ohLat.Median() < chordLat.Median(), "one-hop-latency-wins",
				"one-hop median %.3fs vs chord %.3fs", ohLat.Median(), chordLat.Median())
			r.AddCheck(ordinary100k < 50, "feasible-at-100k",
				"ordinary-node maintenance %.1f kbit/s at n=100k — broadband-feasible (Gupta et al.)", ordinary100k)
			return nil
		},
	}
}

// sessionLabel renders a mean-session duration compactly for table titles
// ("1h", "90m").
func sessionLabel(d time.Duration) string {
	if d%time.Hour == 0 {
		return fmt.Sprintf("%dh", int(d/time.Hour))
	}
	return fmt.Sprintf("%dm", int(d/time.Minute))
}

// e15Churn reproduces §II-B Problem 2: open-overlay performance degrades
// with churn.
func e15Churn() core.Experiment {
	return &exp{
		id:    "E15",
		title: "Churn degrades open-overlay lookups",
		claim: "§II-B P2: P2P networks show high churn; fault-tolerant self-adjustment causes performance problems and latency — stable cloud servers have no rival when guaranteed quality of service is needed.",
		run: func(cfg core.Config, r *core.Result) error {
			n := e15Nodes.get(cfg)
			lookups := e15Lookups.get(cfg)
			minSession := time.Duration(e15MinSession.get(cfg)) * time.Minute
			type level struct {
				avail, success, latency, timeouts float64
			}
			// The paper's order, longest sessions first. Parts take the
			// levels in reverse, so the churn-heaviest one (minsession is
			// below 30 min) starts first and the others fill the idle core.
			sessions := []time.Duration{2 * time.Hour, 30 * time.Minute, minSession}
			levels, err := fanOut(cfg, len(sessions), func(i int) (level, error) {
				session := sessions[len(sessions)-1-i]
				s := newSim(cfg)
				nm := netmodel.New(s, netmodel.WithJitter(0.1))
				nw := kademlia.NewNetwork(s, nm, kademlia.Config{
					K: 8, Alpha: 3, RPCTimeout: 2 * time.Second, UnresponsiveFrac: 0,
				})
				for range n {
					nw.AddNode(netmodel.Europe)
				}
				gap := session / 2
				// pending counts the measured lookups that have not yet
				// reported. Once it is zero nothing reads the overlay
				// again (only proc.OnlineCount, at 2 h, and the churn
				// process ignores its callbacks), so a returning node
				// just comes up instead of rebuilding its table.
				pending := lookups
				proc, err := churn.New(s, n, churn.Config{
					Session:       churn.Exponential(session),
					Gap:           churn.Exponential(gap),
					InitialOnline: churn.ExpectedAvailability(session, gap),
				}, func(node int) {
					if pending == 0 {
						nw.SetOnline(nw.Nodes()[node], true)
						return
					}
					nw.Rejoin(nw.Nodes()[node], nil)
				}, func(node int) {
					nw.SetOnline(nw.Nodes()[node], false)
				})
				if err != nil {
					return level{}, err
				}
				// Start churn, align overlay state with it, then bootstrap
				// the converged tables over the online population only.
				proc.Start()
				for i, node := range nw.Nodes() {
					if !proc.Online(i) {
						nw.SetOnline(node, false)
					}
				}
				if err := nw.Bootstrap(); err != nil {
					return level{}, err
				}
				// Warm up, then measure lookups spread over an hour.
				if err := s.RunUntil(10 * time.Minute); err != nil {
					return level{}, err
				}
				g := s.Stream("e15")
				success := 0
				var lat metrics.Sample
				var timeouts metrics.Summary
				for range lookups {
					at := s.Now() + time.Duration(g.Float64()*float64(time.Hour))
					s.At(at, func() {
						var origin *kademlia.Node
						for tries := 0; tries < 100; tries++ {
							cand := nw.Nodes()[g.Intn(n)]
							if nw.Online(cand) {
								origin = cand
								break
							}
						}
						if origin == nil {
							pending--
							return
						}
						target := overlay.RandomID(g)
						nw.Lookup(origin, target, func(res kademlia.Result) {
							lat.AddDuration(res.Latency)
							timeouts.Add(float64(res.Timeouts))
							truth := nw.ClosestOnline(target, 3)
						found:
							for _, c := range res.Closest {
								for _, tn := range truth {
									if c.ID == tn.ID {
										success++
										break found
									}
								}
							}
							pending--
						})
					})
				}
				if err := s.RunUntil(2 * time.Hour); err != nil {
					return level{}, err
				}
				return level{
					avail:    float64(proc.OnlineCount()) / float64(n),
					success:  float64(success) / float64(lookups),
					latency:  lat.Median(),
					timeouts: timeouts.Mean(),
				}, nil
			})
			if err != nil {
				return err
			}
			slices.Reverse(levels)
			tab := metrics.NewTable("kademlia under churn (simulated)",
				"mean session", "availability", "lookup success", "median latency (s)", "timeouts/lookup")
			fig := &metrics.Figure{Title: "churn impact", XLabel: "mean session (min)", YLabel: "median latency (s)"}
			for i, lv := range levels {
				tab.AddRowf(sessions[i].String(), lv.avail, lv.success, lv.latency, lv.timeouts)
				fig.Add("median latency", sessions[i].Minutes(), lv.latency)
			}
			r.Tables = append(r.Tables, tab)
			r.Figures = append(r.Figures, fig)
			first, last := levels[0], levels[len(levels)-1]
			r.AddCheck(first.success >= 0.9 && first.latency < 3, "stable-network-works",
				"success %.2f, median %.1fs with 2h sessions", first.success, first.latency)
			// Kademlia's alpha-parallelism masks failures by paying
			// latency: the paper's "fault-tolerant and self-adjusting, but
			// this causes performance problems and latency".
			r.AddCheck(last.latency >= 1.5*first.latency, "churn-costs-latency",
				"median latency %.1fs (2h sessions) -> %.1fs (%s sessions)", first.latency, last.latency, sessionLabel(minSession))
			r.AddCheck(last.timeouts > first.timeouts, "churn-costs-timeouts",
				"timeouts/lookup %.1f -> %.1f as sessions shrink", first.timeouts, last.timeouts)
			return nil
		},
	}
}
