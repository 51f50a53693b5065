package netmodel

import (
	"fmt"
	"time"
)

// Time-varying network conditions. A condition — the loss rate, the
// partition map or one node's up flag — has an ambient value, which its
// setter writes (SetLoss, Partition/Heal, SetUp), and a window may hold it
// at another value during [start, end) of virtual time. Messages in flight
// when a window opens are subject to the new condition at delivery time (a
// partition drops them), and messages dropped during a window are gone:
// healing does not retroactively deliver anything.
//
// override is the one rule that books a window. Windows over the same
// condition must not overlap. While a window holds its condition a setter
// changes only the ambient value, and the window's end restores that value
// only if the window still holds the condition, so when window A's end and
// window B's start land on the same instant, B's condition wins whatever
// the event order.

// window is one scheduled [start, end) condition interval.
type window struct{ start, end time.Duration }

// Condition keys: a node's up flag is keyed by its id, the shared
// conditions by negative ids.
const lossCond, partCond NodeID = -1, -2

// SchedulePartitionWindow installs the given partition groups during
// [start, end) of virtual time, restoring the ambient partition (the
// Partition/Heal state) at end. Nodes absent from groups stay in group 0.
// Windows must lie in the future, be well-ordered, and not overlap another
// partition window.
func (n *Net) SchedulePartitionWindow(start, end time.Duration, groups map[NodeID]int) error {
	// Expand the groups now: the caller may reuse its map after this call,
	// and nodes attached before the window starts default to group 0 via
	// partitioned()'s bounds rule anyway.
	expanded := n.groupSlice(groups)
	return n.override(partCond, "partition", start, end, func() {
		n.partOf = expanded
		n.noteWindow("partition.start", 0, "groups", int64(len(groups)))
	}, func() {
		n.partOf = n.basePart
		n.noteWindow("partition.end", 0, "", 0)
	})
}

// ScheduleLossWindow raises the per-message loss probability to p during
// [start, end), restoring the ambient rate (the SetLoss value) at the end.
// Loss windows must not overlap each other.
func (n *Net) ScheduleLossWindow(start, end time.Duration, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("netmodel: loss probability %g outside [0, 1]", p)
	}
	return n.override(lossCond, "loss", start, end, func() {
		n.loss = p
		n.noteWindow("loss.start", 0, "ppm", int64(p*1e6))
	}, func() {
		n.loss = n.baseLoss
		n.noteWindow("loss.end", 0, "ppm", int64(n.loss*1e6))
	})
}

// ScheduleOutageWindow takes a node offline during [start, end), restoring
// its ambient SetUp state at end (a node SetUp(id, false) before or during
// the window stays down). In-flight messages to the node are dropped at
// delivery time, exactly as with a manual SetUp(id, false). A node's
// outage windows must not overlap.
func (n *Net) ScheduleOutageWindow(start, end time.Duration, id NodeID) error {
	if !n.valid(id) {
		return fmt.Errorf("netmodel: unknown node %d", id)
	}
	return n.override(id, fmt.Sprintf("node %d outage", id), start, end, func() {
		n.nodes[id].up = false
		n.noteWindow("outage.start", int64(id), "node", int64(id))
	}, func() {
		n.nodes[id].up = n.nodes[id].baseUp
		n.noteWindow("outage.end", int64(id), "node", int64(id))
	})
}

// override books a window over the condition keyed by key: at start the
// window becomes the holder and apply sets its value; at end, if it still
// holds the condition, it lets go and restore reinstates the ambient value.
func (n *Net) override(key NodeID, what string, start, end time.Duration, apply, restore func()) error {
	if start < n.kern.Now() {
		return fmt.Errorf("netmodel: window start %v is in the past (now %v)", start, n.kern.Now())
	}
	if end <= start {
		return fmt.Errorf("netmodel: window end %v not after start %v", end, start)
	}
	for _, x := range n.wins[key] {
		if start < x.end && x.start < end {
			return fmt.Errorf("netmodel: %s window [%v, %v) overlaps an existing one", what, start, end)
		}
	}
	if n.wins == nil {
		n.wins = make(map[NodeID][]window)
		n.holder = make(map[NodeID]*window)
	}
	w := &window{start, end}
	n.wins[key] = append(n.wins[key], *w)
	n.kern.At(start, func() {
		n.holder[key] = w
		apply()
	})
	n.kern.At(end, func() {
		if n.holder[key] == w {
			delete(n.holder, key)
			restore()
		}
	})
	return nil
}
