package netmodel

import (
	"fmt"
	"time"
)

// Time-varying network conditions. Experiments describe degraded windows —
// a trans-continental partition, a lossy period — declaratively; the
// transport flips the condition on at the window start and restores the
// ambient state at the end. Messages in flight when a window opens are
// subject to the new condition at delivery time (a partition drops them),
// and messages dropped during a window are gone: healing does not
// retroactively deliver anything.
//
// Windows over the same state (the loss rate, the partition map, one
// node's up flag) must not overlap and are rejected at scheduling time.
// Back-to-back windows are fine: each window records itself as the state's
// owner while active, and its end event restores the ambient value only if
// it still owns the state — so when window A's end and window B's start
// land on the same instant, the outcome is B's condition regardless of
// event order.

// window is one scheduled [start, end) condition interval.
type window struct{ start, end time.Duration }

func overlapsAny(ws []window, w window) bool {
	for _, x := range ws {
		if w.start < x.end && x.start < w.end {
			return true
		}
	}
	return false
}

// SchedulePartitionWindow installs the given partition groups during
// [start, end) of virtual time, restoring the ambient partition (the
// Partition/Heal state) at end. Nodes absent from groups stay in group 0.
// Windows must lie in the future, be well-ordered, and not overlap another
// partition window.
func (n *Net) SchedulePartitionWindow(start, end time.Duration, groups map[NodeID]int) error {
	if err := n.checkWindow(start, end); err != nil {
		return err
	}
	w := &window{start, end}
	if overlapsAny(n.partWins, *w) {
		return fmt.Errorf("netmodel: partition window [%v, %v) overlaps an existing one", start, end)
	}
	n.partWins = append(n.partWins, *w)
	// Expand the groups now: the caller may reuse its map after this call,
	// and nodes attached before the window starts default to group 0 via
	// partitioned()'s bounds rule anyway.
	expanded := n.groupSlice(groups)
	n.kerns[0].At(start, func() {
		n.partOwner = w
		n.partOf = expanded
		n.noteWindow("partition.start", 0, "groups", int64(len(groups)))
	})
	n.kerns[0].At(end, func() {
		if n.partOwner == w {
			n.partOwner = nil
			n.partOf = n.basePart
			n.noteWindow("partition.end", 0, "", 0)
		}
	})
	return nil
}

// ScheduleLossWindow raises the per-message loss probability to p during
// [start, end), restoring the ambient rate (the WithLoss/SetLoss value) at
// the end. Loss windows must not overlap each other.
func (n *Net) ScheduleLossWindow(start, end time.Duration, p float64) error {
	if err := n.checkWindow(start, end); err != nil {
		return err
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("netmodel: loss probability %g outside [0, 1]", p)
	}
	w := &window{start, end}
	if overlapsAny(n.lossWins, *w) {
		return fmt.Errorf("netmodel: loss window [%v, %v) overlaps an existing one", start, end)
	}
	n.lossWins = append(n.lossWins, *w)
	n.kerns[0].At(start, func() {
		n.lossOwner = w
		n.loss = p
		n.noteWindow("loss.start", 0, "ppm", int64(p*1e6))
	})
	n.kerns[0].At(end, func() {
		if n.lossOwner == w {
			n.lossOwner = nil
			n.loss = n.baseLoss
			n.noteWindow("loss.end", 0, "ppm", int64(n.loss*1e6))
		}
	})
	return nil
}

// ScheduleOutageWindow takes a node offline during [start, end), restoring
// its ambient SetUp state at end (a node SetUp(id, false) before or during
// the window stays down). In-flight messages to the node are dropped at
// delivery time, exactly as with a manual SetUp(id, false). A node's
// outage windows must not overlap.
func (n *Net) ScheduleOutageWindow(start, end time.Duration, id NodeID) error {
	if err := n.checkWindow(start, end); err != nil {
		return err
	}
	if !n.valid(id) {
		return fmt.Errorf("netmodel: unknown node %d", id)
	}
	w := &window{start, end}
	if overlapsAny(n.outageWins[id], *w) {
		return fmt.Errorf("netmodel: outage window [%v, %v) for node %d overlaps an existing one", start, end, id)
	}
	if n.outageWins == nil {
		n.outageWins = make(map[NodeID][]window)
		n.outOwner = make(map[NodeID]*window)
	}
	n.outageWins[id] = append(n.outageWins[id], *w)
	n.kerns[0].At(start, func() {
		n.outOwner[id] = w
		n.nodes[id].up = false
		n.noteWindow("outage.start", int64(id), "node", int64(id))
	})
	n.kerns[0].At(end, func() {
		if n.outOwner[id] == w {
			delete(n.outOwner, id)
			n.nodes[id].up = n.nodes[id].baseUp
			n.noteWindow("outage.end", int64(id), "node", int64(id))
		}
	})
	return nil
}

func (n *Net) checkWindow(start, end time.Duration) error {
	if len(n.kerns) > 1 {
		return fmt.Errorf("netmodel: condition windows mutate state shared across shards and are not supported on sharded nets")
	}
	if start < n.kerns[0].Now() {
		return fmt.Errorf("netmodel: window start %v is in the past (now %v)", start, n.kerns[0].Now())
	}
	if end <= start {
		return fmt.Errorf("netmodel: window end %v not after start %v", end, start)
	}
	return nil
}
