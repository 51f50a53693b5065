// Package decent is the library entry point of the reproduction of "Please,
// do not decentralize the Internet with (permissionless) blockchains!"
// (Garcia Lopez, Montresor, Datta — ICDCS 2019).
//
// The paper is a position paper: its evaluation is a set of quantitative
// claims about open peer-to-peer systems, permissionless blockchains, and
// their permissioned/edge alternatives. This module rebuilds the systems
// its experiments run — Kademlia/Chord/one-hop/Gnutella overlays, churn and
// sybil attack models, a proof-of-work block tree with its mining economy,
// PBFT/Raft, a Fabric-style permissioned stack and an edge placement model
// (internal/gossip is a validation model tests cross-check E08 against) —
// and regenerates each claim as an experiment with a shape verdict.
//
// Quick start:
//
//	reg, _ := decent.Experiments()
//	res, _ := reg.Run("E06", decent.Config{Seed: 1})
//	fmt.Println(res)
//
// That is the whole root API. Everything beyond a single run — sweeps and
// multi-seed aggregation (internal/harness), the reproduction report
// (internal/report), the report service (internal/serve), telemetry
// (internal/obs), and the kernel and transport for custom scenarios
// (internal/sim, internal/netmodel) — is imported from its own package,
// as cmd/decentsim, bench/ and examples/ do; there is no re-export list
// to keep in step with them.
//
// See DESIGN.md for the layer map and the experiment index.
package decent

import (
	"repro/internal/core"
	"repro/internal/experiments"
)

// Config controls an experiment run: Seed pins determinism, Scale trades
// fidelity for speed, and Params carries named per-experiment knobs.
type Config = core.Config

// Result is an experiment outcome: regenerated tables/figures plus shape
// checks.
type Result = core.Result

// Experiments returns the full registry (E01–E19) in paper order.
func Experiments() (*core.Registry, error) {
	return experiments.Registry()
}

// Run executes a single experiment by id with the given configuration.
func Run(id string, cfg Config) (*Result, error) {
	reg, err := experiments.Registry()
	if err != nil {
		return nil, err
	}
	return reg.Run(id, cfg)
}
