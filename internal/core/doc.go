// Package core is the reproduction framework — the paper's argument
// turned into checkable artifacts. Each Experiment corresponds to one
// quantitative claim from the paper, runs the relevant simulated systems,
// emits the table/figure the claim corresponds to, and issues a shape
// verdict: does the simulation reproduce who wins, by roughly what
// factor, and where the crossover lies?
//
// The package defines the run contract shared by every layer above it:
//
//   - Config: seed (determinism), scale (fidelity/speed trade), and the
//     named per-experiment knobs sweeps cross in;
//   - Result: regenerated tables, figures, full-precision metrics, and
//     shape checks, marshalling to stable JSON;
//   - Experiment and Registry: the claim catalogue in paper order;
//   - SectionOf: the paper section a claim cites, the axis the
//     reproduction report's claim-traceability matrix is grouped on.
//
// Equal seeds give identical Results; everything else in the repository
// (harness sweeps, the report generator, golden tests) builds on that
// guarantee.
package core
