package netmodel

import (
	"time"

	"repro/internal/obs"
)

// Telemetry instrumentation for the transport. The instruments live as
// direct fields on Net (see netmodel.go); when no collector is attached
// they are all nil, and every recording call below degrades to a
// nil-receiver no-op — one predictable branch, zero allocations — so the
// hot paths carry their instrumentation unconditionally.

// regionLabels maps the Region enum (1-based; 0 is "unset") to lane labels.
var regionLabels = []string{"?", "NA", "EU", "AS", "SA", "OC", "AF"}

// observe registers the transport's instruments against the run collector.
// Called from New when the sim carries an observer.
func (n *Net) observe(col *obs.Collector) {
	col.SetRegions(regionLabels)
	n.col = col
	n.cSent = col.Counter("net.msgs_sent")
	n.cDelivered = col.Counter("net.msgs_delivered")
	n.cDropLoss = col.Counter("net.drop_loss")
	n.cDropDown = col.Counter("net.drop_down")
	n.cDropPartition = col.Counter("net.drop_partition")
	n.cDropInFlight = col.Counter("net.drop_in_flight")
	n.hDelay = col.Histogram("net.delivery_delay_ns")
	n.trace = col.Trace()
}

// noteSend records an admitted, transmitted message and its scheduled
// delivery delay.
func (n *Net) noteSend(from, to NodeID, size int, delay time.Duration) {
	n.cSent.Add(int(from), int(n.nodes[from].region), 1)
	n.hDelay.Observe(int64(delay))
	if n.trace != nil {
		n.trace.Span("send", "net", int64(n.kerns[0].Now()), int64(delay), int64(from),
			"to", int64(to), "size", int64(size))
	}
}

// noteAdmissionDrop classifies a reachability rejection (offline endpoint
// vs. partition) at send time.
func (n *Net) noteAdmissionDrop(from, to NodeID) {
	if n.col == nil {
		return
	}
	reg := int(n.nodes[to].region)
	name := "drop.partition"
	if !n.nodes[from].up || !n.nodes[to].up {
		n.cDropDown.Add(int(to), reg, 1)
		name = "drop.down"
	} else {
		n.cDropPartition.Add(int(to), reg, 1)
	}
	n.trace.Instant(name, "net", int64(n.kerns[0].Now()), int64(from), "to", int64(to))
}

// noteLossDrop records a message lost to the loss draw (transmitted, then
// dropped in flight).
func (n *Net) noteLossDrop(from, to NodeID) {
	if n.col == nil {
		return
	}
	n.cDropLoss.Add(int(to), int(n.nodes[to].region), 1)
	n.trace.Instant("drop.loss", "net", int64(n.kerns[0].Now()), int64(from), "to", int64(to))
}

// noteInFlightDrop records a delivery-time drop: the receiver went down or
// a partition formed while the message was in flight.
func (n *Net) noteInFlightDrop(from, to NodeID) {
	if n.col == nil {
		return
	}
	n.cDropInFlight.Add(int(to), int(n.nodes[to].region), 1)
	n.trace.Instant("drop.in_flight", "net", int64(n.kerns[0].Now()), int64(from), "to", int64(to))
}

// noteDelivered records a completed delivery.
func (n *Net) noteDelivered(to NodeID) {
	n.cDelivered.Add(int(to), int(n.nodes[to].region), 1)
}

// noteWindow emits the trace instants bracketing a condition window
// (partition, loss, outage). Edges are emitted when the window takes
// effect and releases, so the trace shows the actual intervals.
func (n *Net) noteWindow(name string, tid int64, key string, val int64) {
	if n.trace == nil {
		return
	}
	n.trace.Instant(name, "net.window", int64(n.kerns[0].Now()), tid, key, val)
}
