package netmodel

// Shard routing. Every Net schedules deliveries on a set of S sim kernels:
// the one kernel it was given (New, S = 1) or the logical shards of a
// sim.ShardedSim (NewSharded). Nodes are assigned to shards round-robin by
// attach order, so shard load balances for any topology, and a delivery runs
// on the kernel owning the receiver: a same-shard delivery is a pooled
// AtFunc on that kernel, a cross-shard one rides the driver's mailbox and
// is merged deterministically at the next window barrier. A send draws loss
// and jitter from its *sender's* shard's "netmodel" stream, on the sender's
// worker, so draw sequences depend only on per-shard event order, which the
// driver keeps worker-count invariant. With S = 1 every node is owned by
// shard 0, no delivery crosses, and this is an ordinary sequential
// transport.
//
// What S > 1 takes away is decided when a net is built or a window is
// scheduled, never per message: condition windows (partition/loss/outage)
// mutate state no single shard owns and are rejected (schedule.go), and the
// shared counters, delay histogram and trace are left unregistered. Topology
// mutations (SetUp, Partition, SetLoss) are setup-time only there; during a
// run that shared state is read-only on the hot path.

import (
	"time"

	"repro/internal/sim"
)

// NewSharded creates an empty network whose event scheduling is partitioned
// across the shards of ss. The caller must size the driver's window with
// DelayFloor over the regions (and jitter) the topology will use; the
// driver verifies the resulting schedule at run time. Kernel statistics
// still reach a collector attached to the driver.
func NewSharded(ss *sim.ShardedSim, opts ...Option) *Net {
	kerns := make([]*sim.Sim, ss.ShardCount())
	for i := range kerns {
		kerns[i] = ss.Shard(i)
	}
	return bind(ss, kerns, opts)
}

// bind is the one constructor: a network on the kernels it schedules on.
// The transport's instruments are single-writer, so they register only when
// one kernel does all the writing.
func bind(ss *sim.ShardedSim, kerns []*sim.Sim, opts []Option) *Net {
	n := &Net{kerns: kerns, ss: ss, jitter: 0.1, calls: make([][]*exchange, len(kerns))}
	for _, k := range kerns {
		n.rngs = append(n.rngs, k.Stream("netmodel"))
	}
	for _, opt := range opts {
		opt(n)
	}
	if col := kerns[0].Observer(); col != nil && len(kerns) == 1 {
		n.observe(col)
	}
	return n
}

// ShardOf returns the shard owning a node; 0 for invalid ids.
func (n *Net) ShardOf(id NodeID) int {
	if !n.valid(id) {
		return 0
	}
	return int(n.owner[id])
}

// Kernel returns the sim kernel a node's events execute on. Substrates
// riding the transport schedule their per-node control events (timeouts,
// retries) on it so those events run on the node's worker.
func (n *Net) Kernel(id NodeID) *sim.Sim { return n.kerns[n.ShardOf(id)] }

// rngFor returns the stream a node's sends draw loss and jitter from.
//
//decentlint:hotpath
func (n *Net) rngFor(id NodeID) *sim.RNG { return n.rngs[n.owner[id]] }

// schedule books a delivery: directly on the sender's kernel when it also
// owns the receiver, through the cross-shard mailbox otherwise. The fire
// time is anchored at the sender's clock, so the driver's window rule
// applies to the full delay (which DelayFloor bounds from below).
//
//decentlint:hotpath
func (n *Net) schedule(from, to NodeID, delay time.Duration, h sim.Handler, p sim.Payload) bool {
	sf, st := n.owner[from], n.owner[to]
	k := n.kerns[sf]
	if sf == st {
		return k.AtFunc(k.Now()+delay, h, p)
	}
	return n.ss.Post(int(sf), int(st), k.Now()+delay, h, p)
}

// DelayFloor returns the conservative window bound for a topology spanning
// the given regions under the given jitter fraction: the minimum one-way
// propagation delay over every ordered region pair (including same-region
// links — shards partition nodes, not regions), scaled by the jitter's
// lower edge. Any Send between nodes in these regions takes at least this
// long (transfer time only adds), so a sharded driver windowed at the
// floor never sees a cross-shard event land inside the window it was
// posted from. The scale arithmetic mirrors RNG.Jitter's minimum exactly.
func DelayFloor(jitter float64, regions ...Region) time.Duration {
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	min := time.Duration(0)
	for _, a := range regions {
		for _, b := range regions {
			if a < NorthAmerica || a > Region(NumRegions) || b < NorthAmerica || b > Region(NumRegions) {
				continue
			}
			base := time.Duration(baseOneWay[a-1][b-1]) * time.Millisecond
			if min == 0 || base < min {
				min = base
			}
		}
	}
	if min == 0 {
		return 0
	}
	// RNG.Jitter's lowest draw scales by 1 + f*(2*0-1), which is exactly
	// 1-f in float arithmetic, so this floor is attained, never crossed.
	return time.Duration(float64(min) * (1 - jitter))
}
