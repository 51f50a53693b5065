package netmodel

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Region is a coarse geographic location used to derive baseline
// propagation delays.
type Region int

// The supported regions. Delay values between them follow public inter-region
// RTT measurements (order of magnitude, not a live snapshot).
const (
	NorthAmerica Region = iota + 1
	Europe
	Asia
	SouthAmerica
	Oceania
	Africa
)

// NumRegions is the count of defined regions.
const NumRegions = 6

func (r Region) String() string {
	switch r {
	case NorthAmerica:
		return "NA"
	case Europe:
		return "EU"
	case Asia:
		return "AS"
	case SouthAmerica:
		return "SA"
	case Oceania:
		return "OC"
	case Africa:
		return "AF"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// baseOneWay holds one-way propagation delays between regions in
// milliseconds, indexed by (Region-1).
var baseOneWay = [NumRegions][NumRegions]int{
	//        NA   EU   AS   SA   OC   AF
	/*NA*/ {20, 45, 90, 75, 85, 110},
	/*EU*/ {45, 15, 80, 100, 140, 70},
	/*AS*/ {90, 80, 30, 150, 60, 120},
	/*SA*/ {75, 100, 150, 25, 130, 160},
	/*OC*/ {85, 140, 60, 130, 20, 150},
	/*AF*/ {110, 70, 120, 160, 150, 35},
}

// NodeID identifies a node attached to the network.
type NodeID int

// Shared pacing defaults for substrates riding the transport. Retry and
// pacing delays that used to be hard-coded per substrate are centralized
// here so every layer backs off on the same timescale.
const (
	// DefaultRetryDelay is the resubmission backoff for transient
	// transport-level failures (no leader yet, full queues).
	DefaultRetryDelay = 250 * time.Millisecond
	// DefaultPacing spaces out repeated measurement or broadcast rounds so
	// they do not overlap in flight.
	DefaultPacing = time.Second
)

// Net is a simulated wide-area network. Construct with New (or NewSharded);
// attach nodes with AddNode; deliver messages with Send.
type Net struct {
	// shard routing (shard.go): the kernels deliveries are scheduled on,
	// indexed by shard — one kernel, and an all-zero owner table, under New.
	kerns []*sim.Sim
	rngs  []*sim.RNG      // per-shard "netmodel" streams
	owner []int32         // node -> owning shard, round-robin by attach order
	ss    *sim.ShardedSim // carries cross-shard deliveries; nil and unreached with one kernel
	calls [][]*exchange   // per-shard pools of Call's exchange state

	nodes    []nodeState
	jitter   float64
	loss     float64 // effective rate (a window may be overriding base)
	baseLoss float64 // ambient rate set by SetLoss
	partOf   []int   // effective node->group map; nil when unpartitioned
	basePart []int   // ambient partition set by Partition/Heal

	// condition windows (schedule.go), nil until the first is booked: the
	// intervals and the current holder, keyed by condition.
	wins   map[NodeID][]window
	holder map[NodeID]*window

	// telemetry instruments (observe.go); all nil when the run has no
	// collector, in which case every recording call is a nil-receiver
	// no-op on the hot path.
	col            *obs.Collector
	cSent          *obs.Counter
	cDelivered     *obs.Counter
	cDropLoss      *obs.Counter
	cDropDown      *obs.Counter
	cDropPartition *obs.Counter
	cDropInFlight  *obs.Counter
	hDelay         *obs.Histogram
	trace          *obs.Trace
}

type nodeState struct {
	region  Region
	upBps   float64 // uplink bits/second; 0 = unconstrained
	downBps float64 // downlink bits/second; 0 = unconstrained
	up      bool    // effective state (an outage window may override base)
	baseUp  bool    // ambient state set by SetUp
}

// Option configures a Net.
type Option func(*Net)

// WithJitter sets the symmetric latency jitter fraction (e.g. 0.2 = ±20 %).
func WithJitter(f float64) Option {
	return func(n *Net) { n.jitter = f }
}

// New creates an empty network bound to the simulator, drawing randomness
// from its "netmodel" stream.
func New(s *sim.Sim, opts ...Option) *Net {
	return bind(nil, []*sim.Sim{s}, opts)
}

// AddNode attaches a node in the given region with the given uplink
// bandwidth in bits/second (0 means unconstrained) and returns its id. The
// downlink is unconstrained; use AddNodeLink for asymmetric access links.
func (n *Net) AddNode(region Region, uplinkBps float64) NodeID {
	return n.AddNodeLink(region, uplinkBps, 0)
}

// AddNodeLink attaches a node with an asymmetric access link: uplink and
// downlink bandwidth in bits/second, 0 meaning unconstrained on that
// direction — the common edge case (home broadband, cellular) where a node
// can receive far faster than it can serve.
func (n *Net) AddNodeLink(region Region, uplinkBps, downlinkBps float64) NodeID {
	n.nodes = append(n.nodes, nodeState{region: region, upBps: uplinkBps, downBps: downlinkBps, up: true, baseUp: true})
	n.owner = append(n.owner, int32((len(n.nodes)-1)%len(n.kerns)))
	n.col.SetNodeSpace(len(n.nodes))
	return NodeID(len(n.nodes) - 1)
}

// Size returns the number of attached nodes.
func (n *Net) Size() int { return len(n.nodes) }

// SetUp marks a node's ambient state online or offline. Messages to or
// from offline nodes are silently dropped, mirroring unreachable peers.
// While a scheduled outage window holds the node down, the new ambient
// state takes effect when the window closes.
func (n *Net) SetUp(id NodeID, up bool) {
	if !n.valid(id) {
		return
	}
	n.nodes[id].baseUp = up
	if n.holder[id] == nil {
		n.nodes[id].up = up
	}
}

// Region returns a node's region (0 for invalid ids).
func (n *Net) Region(id NodeID) Region {
	if !n.valid(id) {
		return 0
	}
	return n.nodes[id].region
}

func (n *Net) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes)
}

// Latency returns a jittered one-way propagation delay between two nodes.
// The draw comes from the stream of the shard owning the sending node.
func (n *Net) Latency(from, to NodeID) time.Duration {
	if !n.valid(from) || !n.valid(to) {
		return 0
	}
	a, b := n.nodes[from].region, n.nodes[to].region
	base := time.Duration(baseOneWay[a-1][b-1]) * time.Millisecond
	return n.rngFor(from).Jitter(base, n.jitter)
}

// TransferTime returns serialization delay for size bytes across the pair
// of access links: the sender's uplink plus the receiver's downlink
// (store-and-forward through the wide-area core). Either side contributes
// zero when unconstrained, so symmetric nets behave exactly as before the
// downlink term existed.
func (n *Net) TransferTime(from, to NodeID, size int) time.Duration {
	if !n.valid(from) || size <= 0 {
		return 0
	}
	d := serialization(n.nodes[from].upBps, size)
	if n.valid(to) {
		d += serialization(n.nodes[to].downBps, size)
	}
	return d
}

// serialization is size bytes over bps bits/second (0 when unconstrained).
func serialization(bps float64, size int) time.Duration {
	if bps <= 0 {
		return 0
	}
	seconds := float64(size*8) / bps
	return time.Duration(seconds * float64(time.Second))
}

// Partition assigns the ambient partition: messages crossing groups are
// dropped until Heal is called. Nodes not present in groups stay in group
// 0. While a scheduled partition window is active, the new ambient
// partition takes effect when the window closes.
func (n *Net) Partition(groups map[NodeID]int) {
	n.basePart = n.groupSlice(groups)
	if n.holder[partCond] == nil {
		n.partOf = n.basePart
	}
}

// Heal removes the ambient partition (deferred past any active window,
// like Partition).
func (n *Net) Heal() {
	n.basePart = nil
	if n.holder[partCond] == nil {
		n.partOf = nil
	}
}

// groupSlice expands a partition map into the per-node group slice.
func (n *Net) groupSlice(groups map[NodeID]int) []int {
	out := make([]int, len(n.nodes))
	for id, g := range groups {
		if n.valid(id) {
			out[id] = g
		}
	}
	return out
}

// partitioned reports whether a partition separates two nodes. Nodes
// attached after the partition formed sit in group 0, like nodes absent
// from the Partition call.
func (n *Net) partitioned(a, b NodeID) bool {
	if n.partOf == nil {
		return false
	}
	var ga, gb int
	if int(a) < len(n.partOf) {
		ga = n.partOf[a]
	}
	if int(b) < len(n.partOf) {
		gb = n.partOf[b]
	}
	return ga != gb
}

// SetLoss updates the ambient per-message loss probability, clamped to
// [0, 1] (NaN reads as 0). It applies to sends issued after the call;
// messages already in flight are unaffected. While a scheduled loss window
// is active, the new ambient rate takes effect when the window closes.
func (n *Net) SetLoss(p float64) {
	if !(p >= 0) {
		p = 0
	} else if p > 1 {
		p = 1
	}
	n.baseLoss = p
	if n.holder[lossCond] == nil {
		n.loss = p
	}
}

// reachable reports whether a message can be put on the wire at all: both
// endpoints online and no partition between them. Loss is decided
// separately — a lost message was still transmitted before vanishing in
// flight, identically on every transport primitive.
func (n *Net) reachable(from, to NodeID) bool {
	if !n.nodes[from].up || !n.nodes[to].up {
		return false
	}
	return !n.partitioned(from, to)
}

// deliverSend is the pooled delivery handler behind Send: Ctx is the *Net,
// Aux the caller's deliver callback and A/B the endpoints. The receiver
// must still be online and reachable at delivery time — a message in flight
// when a partition forms (or the receiver goes down) is dropped.
//
//decentlint:hotpath
func deliverSend(p sim.Payload) {
	n := p.Ctx.(*Net)
	from, to := NodeID(p.A), NodeID(p.B)
	if !n.nodes[to].up || n.partitioned(from, to) {
		n.noteInFlightDrop(from, to)
		return
	}
	n.noteDelivered(to)
	p.Aux.(func())()
}

// deliverBroadcast mirrors deliverSend for Broadcast's per-receiver
// callback, which takes the receiver's id.
//
//decentlint:hotpath
func deliverBroadcast(p sim.Payload) {
	n := p.Ctx.(*Net)
	from, to := NodeID(p.A), NodeID(p.B)
	if !n.nodes[to].up || n.partitioned(from, to) {
		n.noteInFlightDrop(from, to)
		return
	}
	n.noteDelivered(to)
	p.Aux.(func(NodeID))(to)
}

// Send schedules delivery of a message of size bytes from one node to
// another, invoking deliver at the receive time. It returns false if the
// message was dropped (loss, partition, or an endpoint being offline at send
// time; delivery additionally checks the receiver is still online and
// unpartitioned). A message to an unreachable peer is never transmitted; a
// message lost to the loss draw was transmitted and then dropped in flight.
// Send is the transport's hot path: delivery rides the sim kernel's pooled
// handler events, so a steady-state Send performs zero allocations (the
// deliver func itself should be reused by callers that care).
//
//decentlint:hotpath
func (n *Net) Send(from, to NodeID, size int, deliver func()) bool {
	if !n.valid(from) || !n.valid(to) || deliver == nil {
		return false
	}
	if !n.reachable(from, to) {
		n.noteAdmissionDrop(from, to)
		return false
	}
	if n.loss > 0 && n.rngFor(from).Bool(n.loss) {
		n.noteLossDrop(from, to)
		return false
	}
	delay := n.TransferTime(from, to, size) + n.Latency(from, to)
	n.noteSend(from, to, size, delay)
	p := sim.Payload{Ctx: n, Aux: deliver, A: int64(from), B: int64(to)}
	return n.schedule(from, to, delay, deliverSend, p)
}

// Broadcast schedules one-pass delivery of size bytes from one node to
// every other online, reachable node, invoking deliver(to) at each receive
// time. Copies serialize sequentially on the sender's uplink — the k-th
// receiver waits k uplink transfers plus its own downlink and propagation
// delay — which is what makes large blocks from low-bandwidth senders slow
// to blanket the network. Copies to offline or partitioned peers are never
// transmitted; a copy lost to the loss draw still consumed the sender's
// uplink slot (it was transmitted, then dropped in flight), so raising loss
// never speeds up the surviving copies. It returns the number of deliveries
// scheduled.
//
//decentlint:hotpath
func (n *Net) Broadcast(from NodeID, size int, deliver func(to NodeID)) int {
	if !n.valid(from) || deliver == nil || !n.nodes[from].up {
		return 0
	}
	scheduled := 0
	perCopy := serialization(n.nodes[from].upBps, size)
	var uplink time.Duration
	for i := range n.nodes {
		to := NodeID(i)
		if to == from {
			continue
		}
		if !n.nodes[to].up || n.partitioned(from, to) {
			n.noteAdmissionDrop(from, to)
			continue
		}
		uplink += perCopy
		if n.loss > 0 && n.rngFor(from).Bool(n.loss) {
			n.noteLossDrop(from, to)
			continue
		}
		delay := uplink + serialization(n.nodes[to].downBps, size) + n.Latency(from, to)
		n.noteSend(from, to, size, delay)
		p := sim.Payload{Ctx: n, Aux: deliver, A: int64(from), B: int64(to)}
		if n.schedule(from, to, delay, deliverBroadcast, p) {
			scheduled++
		}
	}
	return scheduled
}

// Transfer puts one message on the transport without scheduling delivery:
// it applies Send's admission and loss rules and returns the one-way delay
// the message would take. Synchronous substrates (e.g. the off-chain
// payment router) use it to ride the same WAN model while advancing their
// own notion of time.
//
//decentlint:hotpath
func (n *Net) Transfer(from, to NodeID, size int) (time.Duration, bool) {
	if !n.valid(from) || !n.valid(to) {
		return 0, false
	}
	if !n.reachable(from, to) {
		n.noteAdmissionDrop(from, to)
		return 0, false
	}
	if n.loss > 0 && n.rngFor(from).Bool(n.loss) {
		n.noteLossDrop(from, to)
		return 0, false
	}
	delay := n.TransferTime(from, to, size) + n.Latency(from, to)
	n.noteSend(from, to, size, delay)
	n.noteDelivered(to)
	return delay, true
}

// Call runs one request/response exchange under a deadline — the RPC every
// overlay issues. The deadline is scheduled first, on the requester's
// kernel, then the request is sent. serve runs in the request's delivery, on
// the receiver's kernel, and reports whether an answer goes back; whatever it
// computes for the requester it leaves in variables the caller's done reads.
// done(true) fires iff the response is delivered while the deadline is still
// pending; otherwise done(false) fires exactly once, at the deadline, and a
// reply arriving later is dropped unseen. The exchange's own state comes
// from a pool of the requester's shard, so a caller passing serve and done
// funcs it bound once makes an answered Call allocate nothing.
func (n *Net) Call(from, to NodeID, reqSize, respSize int, timeout time.Duration, serve func() bool, done func(ok bool)) {
	x := n.exchange(from)
	x.from, x.to, x.respSize, x.serve, x.done = from, to, respSize, serve, done
	x.deadline = n.Kernel(from).After(timeout, x.expire)
	x.sent = n.Send(from, to, reqSize, x.request)
}

// exchange is the state of one Call, with its three event callbacks bound
// once per object. It is taken from and returned to the pool of the
// requester's shard, on the requester's kernel: when the response is
// delivered, or at the deadline if the request was never sent. Any other
// exchange (request or response dropped, serve declining) may still have an
// event in flight or never will, and is left to the garbage collector.
type exchange struct {
	n                         *Net
	from, to                  NodeID
	respSize                  int
	serve                     func() bool
	done                      func(ok bool)
	deadline                  sim.Handle
	sent                      bool // Send accepted the request
	expire, request, response func()
}

// exchange takes an exchange from the pool of from's shard.
func (n *Net) exchange(from NodeID) *exchange {
	pool := &n.calls[n.ShardOf(from)]
	if last := len(*pool) - 1; last >= 0 {
		x := (*pool)[last]
		*pool = (*pool)[:last]
		return x
	}
	x := &exchange{n: n}
	x.expire, x.request, x.response = x.onDeadline, x.onRequest, x.onResponse
	return x
}

// release returns an exchange no event refers to any more to its pool.
func (x *exchange) release() {
	x.serve, x.done = nil, nil
	pool := &x.n.calls[x.n.ShardOf(x.from)]
	*pool = append(*pool, x)
}

func (x *exchange) onDeadline() {
	done := x.done
	if !x.sent {
		x.release()
	}
	done(false)
}

func (x *exchange) onRequest() {
	if x.serve() {
		x.n.Send(x.to, x.from, x.respSize, x.response)
	}
}

func (x *exchange) onResponse() {
	done, answered := x.done, x.deadline.Scheduled()
	if answered {
		x.deadline.Cancel()
	}
	x.release()
	if answered {
		done(true)
	}
}
