// Package netmodel models the wide-area network underneath every
// simulated substrate: per-region propagation delays with jitter,
// per-node asymmetric access bandwidth (uplink serialization, per-node
// downlink), message loss and partitions. It deliberately models the
// network at the message level — the granularity at which overlay and
// blockchain behaviour (fork rates, lookup timeouts, broadcast latency) is
// determined. The only traffic account is the run's telemetry (observe.go).
//
// netmodel is the single transport layer of the reproduction: overlays,
// gossip, PBFT, Raft and the permissioned stack deliver via Send, the
// overlays' RPCs are Call (a request, a reply and a deadline over two
// Sends), the proof-of-work miner network relays blocks via the one-pass Broadcast,
// and synchronous substrates time Transfer/TransferTime. Node
// populations are realized statistically from a TopologySpec (weighted
// regional mixes with largest-remainder apportionment plus bandwidth
// classes). A fault condition (loss, partition, a node's up flag) has an
// ambient value its setter writes; a Schedule*Window call holds it at
// another value for a while, with pinned in-flight drop semantics.
//
// The hot path is allocation-free: Send and Broadcast recycle pooled
// handler events through the simulator's free list, a property pinned by
// AllocsPerRun tests and benchmarks. Call is not on it: an RPC allocates
// its closures.
package netmodel
