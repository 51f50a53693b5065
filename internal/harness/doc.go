// Package harness orchestrates experiment runs at parameter-sweep scale.
//
// The reproduction's experiments are deterministic and fully isolated —
// each run builds its own sim.Sim from the config seed — so replications
// and sweep points are trivially parallelizable. This package supplies the
// machinery the single-run core deliberately omits:
//
//   - Runner: runs a job list through core.FanOut, its jobs and their
//     parts sharing GOMAXPROCS cores, and returns results in job order.
//     Runner.Run(ctx, jobs) is the one function that executes jobs;
//     callers with nothing to cancel pass context.Background();
//   - Sweep: a grid type crossing experiment ids × seeds × scales × named
//     per-experiment knobs into a deterministic job list;
//   - Aggregate: collapses multi-seed replications of a scenario into
//     mean/stddev/95%-CI per metric and a majority-vote shape verdict;
//   - AggregateView: the report-oriented view of the same aggregation,
//     pairing each scenario's statistics with the artifacts (tables,
//     figures, check detail) of its lowest-seed replication so the report
//     generator can embed concrete output next to cross-seed votes;
//   - Report exporters: deterministic JSON and CSV, so sweep output is a
//     machine-readable artifact rather than a terminal transcript;
//   - ScenarioKey / Group.Key: the canonical scenario identity
//     (experiment + scale + knob assignment), so callers — the report's
//     sensitivity layer — can index aggregated output by the grid points
//     they submitted instead of collapsing knob values together;
//   - Group.Headline: the headline-metric selection rule (first varying
//     metric, else first) shared by the report matrix and the soak gate
//     (`decentsim diff` over two `sweep -json` reports).
//
// Determinism contract: the same Sweep over the same registry yields a
// byte-identical Report.JSON() — and the same AggregateView — regardless
// of worker count.
package harness
