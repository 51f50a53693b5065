package lint

// The keep rule. A declaration under internal/ that no program reaches is
// deleted unless it is test-only code of one of four kinds: a fault
// injector the ROADMAP's invariant item is specified against, an oracle
// tests compare a substrate to, the one reference model, or the kernel
// control surface the kernel fuzzers and shadow-model tests drive. Code
// whose only callers are tests dedicated to it is not a fifth kind: it
// goes, and its tests with it.
var reachKinds = map[string]bool{
	"fault injector": true, "oracle": true, "reference model": true,
	"kernel control surface": true,
}

// reachKeep maps a qualified name (types.Func.FullName for functions and
// methods, "path.Name" otherwise; a trailing * makes the row a prefix) to
// "kind: reason".
var reachKeep = map[string]string{
	"(*repro/internal/netmodel.Net).Partition":            "fault injector: ambient partition, driven by the transport's own tests and named by the invariant item",
	"(*repro/internal/netmodel.Net).Heal":                 "fault injector: ends Partition",
	"(*repro/internal/netmodel.Net).ScheduleLossWindow":   "fault injector: the invariant item's loss windows",
	"(*repro/internal/netmodel.Net).ScheduleOutageWindow": "fault injector: the invariant item's outage windows; TestInFlight*AcrossCrash drive it",
	"(*repro/internal/raft.Cluster).Crash":                "fault injector: leader/follower crash, named by the invariant item",
	"(*repro/internal/raft.Cluster).Recover":              "fault injector: the other half of Crash",
	"(*repro/internal/pbft.Cluster).Crash":                "fault injector: <= f crashed replicas, named by the invariant item",
	"(*repro/internal/pbft.Cluster).Recover":              "fault injector: the other half of Crash",
	"(*repro/internal/pbft.Cluster).MakeEquivocating":     "fault injector: the Byzantine primary, named by the invariant item",
	"(*repro/internal/overlay/chord.Network).SetOnline":   "fault injector: churn transition for the lookup-owner invariant",
	"(*repro/internal/overlay/onehop.Network).SetOnline":  "fault injector: churn transition for the lookup-owner invariant",
	"(*repro/internal/overlay/chord.Network).OwnerOf":     "oracle: ring-successor ground truth lookups are checked against",
	"(*repro/internal/overlay/onehop.Network).OwnerOf":    "oracle: ring-successor ground truth lookups are checked against",
	"(repro/internal/cloudbase.Config).CapacityTPS":       "oracle: analytic throughput ceiling the simulated cluster is tested against",
	"repro/internal/gossip.*":                             "reference model: flooding relay TestGossipCalibratedForkRate cross-checks E08's parametric propagation with; not an experiment substrate",
	"(*repro/internal/gossip.*":                           "reference model: methods of the above",
	"(repro/internal/gossip.*":                            "reference model: methods of the above",
	"(*repro/internal/sim.Sim).Stop":                      "kernel control surface: FuzzScheduleCancel and the shadow-model tests drive it",
	"(*repro/internal/sim.Sim).Pending":                   "kernel control surface: the fuzzers' exact pending-count check",
}
