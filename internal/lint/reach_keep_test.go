package lint

// The keep rule. A declaration under internal/ that no program reaches is
// deleted unless it is test-only code of one of four kinds: a fault
// injector the ROADMAP's invariant item is specified against, an oracle
// tests compare a substrate to, the one reference model, or the kernel
// control surface the kernel fuzzers and shadow-model tests drive. The
// fifth kind is a debt, not a licence: code whose only callers are floor
// tests dedicated to it, left in place because one PR may retire only a
// few tests; ROADMAP's surface-diet item schedules each row's deletion
// together with the tests named here.
var reachKinds = map[string]bool{
	"fault injector": true, "oracle": true, "reference model": true,
	"kernel control surface": true, "deferred": true,
}

// reachKeep maps a qualified name (types.Func.FullName for functions and
// methods, "path.Name" otherwise; a trailing * makes the row a prefix) to
// "kind: reason".
var reachKeep = map[string]string{
	"(*repro/internal/netmodel.Net).Partition":             "fault injector: ambient partition, driven by the transport's own tests and named by the invariant item",
	"(*repro/internal/netmodel.Net).Heal":                  "fault injector: ends Partition",
	"(*repro/internal/netmodel.Net).ScheduleLossWindow":    "fault injector: the invariant item's loss windows",
	"(*repro/internal/netmodel.Net).ScheduleOutageWindow":  "fault injector: the invariant item's outage windows; TestInFlight*AcrossCrash drive it",
	"(*repro/internal/raft.Cluster).Crash":                 "fault injector: leader/follower crash, named by the invariant item",
	"(*repro/internal/raft.Cluster).Recover":               "fault injector: the other half of Crash",
	"(*repro/internal/pbft.Cluster).Crash":                 "fault injector: <= f crashed replicas, named by the invariant item",
	"(*repro/internal/pbft.Cluster).Recover":               "fault injector: the other half of Crash",
	"(*repro/internal/pbft.Cluster).MakeEquivocating":      "fault injector: the Byzantine primary, named by the invariant item",
	"(*repro/internal/overlay/chord.Network).SetOnline":    "fault injector: churn transition for the lookup-owner invariant",
	"(*repro/internal/overlay/onehop.Network).SetOnline":   "fault injector: churn transition for the lookup-owner invariant",
	"(*repro/internal/overlay/chord.Network).OwnerOf":      "oracle: ring-successor ground truth lookups are checked against",
	"(*repro/internal/overlay/onehop.Network).OwnerOf":     "oracle: ring-successor ground truth lookups are checked against",
	"(repro/internal/overlay.ID).XOR":                      "oracle: byte-wise distance XORDistance and CloserXOR are property-tested against",
	"(repro/internal/overlay.ID).Bit":                      "oracle: bit-wise reference TestPropertyCPL checks CommonPrefixLen against",
	"(repro/internal/cloudbase.Config).CapacityTPS":        "oracle: analytic throughput ceiling the simulated cluster is tested against",
	"repro/internal/gossip.*":                              "reference model: flooding relay TestGossipCalibratedForkRate cross-checks E08's parametric propagation with; not an experiment substrate",
	"(*repro/internal/gossip.*":                            "reference model: methods of the above",
	"(repro/internal/gossip.*":                             "reference model: methods of the above",
	"(*repro/internal/sim.Sim).Stop":                       "kernel control surface: FuzzScheduleCancel and the shadow-model tests drive it",
	"(*repro/internal/sim.Sim).Pending":                    "kernel control surface: the fuzzers' exact pending-count check",
	"(*repro/internal/sim.ShardedSim).Stop":                "kernel control surface: roadmap item 3 owns sharded.go",
	"(*repro/internal/sim.ShardedSim).RunFor":              "kernel control surface: chunked-run metamorphic tests",
	"(*repro/internal/sim.ShardedSim).Pending":             "kernel control surface: sharded accounting tests",
	"(*repro/internal/sim.ShardedSim).Now":                 "kernel control surface: sharded accounting tests",
	"(*repro/internal/sim.ShardedSim).Fired":               "kernel control surface: FuzzShardedFireOrder's cross-check",
	"(repro/internal/sim.Handle).At":                       "deferred: TestHandleAt",
	"(*repro/internal/churn.Process).Stop":                 "deferred: TestStopFreezesState",
	"repro/internal/edge.Duration":                         "deferred: TestDurationHelper",
	"(repro/internal/overlay.ID).Ring64":                   "deferred: TestRing64",
	"repro/internal/overlay/onehop.StaleLookupProbability": "deferred: TestStaleLookupProbability",
	"(*repro/internal/report.Tree).Walk":                   "deferred: TestTreeWalkOpen (would need renaming)",
	"(*repro/internal/metrics.Table).JSON":                 "deferred: TestTableAndFigureJSON (encode.go whole)",
	"(*repro/internal/metrics.Figure).JSON":                "deferred: TestTableAndFigureJSON",
	"(*repro/internal/metrics.Sample).CDF":                 "deferred: TestSampleCDFMonotone, TestSampleCDFOnePoint",
	"(*repro/internal/metrics.Summary).AddDuration":        "deferred: TestSummaryDuration",
	"repro/internal/randdist.Exponential":                  "deferred: TestExponentialMean, TestExponentialBadMean; takes RNG.ExpFloat64 with it",
	"repro/internal/randdist.Weibull":                      "deferred: TestWeibullMean",
	"repro/internal/randdist.LogNormal":                    "deferred: TestLogNormalMedian",
	"repro/internal/randdist.ExpDuration":                  "deferred: TestExponentialMean",
	"repro/internal/randdist.ParetoDuration":               "deferred: TestParetoDurationCap",
	"repro/internal/randdist.Discrete":                     "deferred: TestDiscrete, TestDiscreteDegenerate",
	"repro/internal/workload.StartTxSource":                "deferred: TestTxSource, TestTxSourceValidation; takes Tx with it",
	"repro/internal/ledger.NewUTXOSet":                     "deferred: the six TestUTXO*/TestCoinbaseSubsidyCap tests; takes UTXOSet, ErrMissingInput, ErrOverspend and Tx.OutValue with it",
	"(*repro/internal/ledger.UTXOSet).*":                   "deferred: with NewUTXOSet",
	"(*repro/internal/ledger.Tx).Coinbase":                 "deferred: TestUTXOLifecycle",
	"(*repro/internal/ledger.Tx).Size":                     "deferred: TestBlockSizeGrowsWithTxs",
	"(*repro/internal/ledger.Block).Size":                  "deferred: TestBlockSizeGrowsWithTxs",
	"repro/internal/ledger.Prove":                          "deferred: TestMerkleProofs, TestPropertyMerkle; takes MerkleProof with it",
	"(*repro/internal/ledger.MerkleProof).Verify":          "deferred: with Prove",
	"(*repro/internal/ledger.Chain).Confirmations":         "deferred: TestConfirmationsUnknown",
}
