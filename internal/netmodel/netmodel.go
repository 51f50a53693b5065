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

// Net is a simulated wide-area network. Construct with New; attach nodes
// with AddNode; deliver messages with Send.
type Net struct {
	kern  *sim.Sim
	rngs  []*sim.RNG  // the streams sends draw from; node i's is rngs[i % len(rngs)]
	calls []*exchange // recycled exchange state of Call

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
	rng     *sim.RNG // the stream this node's sends draw loss and jitter from
	upBps   float64  // uplink bits/second; 0 = unconstrained
	downBps float64  // downlink bits/second; 0 = unconstrained
	up      bool     // effective state (an outage window may override base)
	baseUp  bool     // ambient state set by SetUp
}

// Option configures a Net.
type Option func(*Net)

// WithJitter sets the symmetric latency jitter fraction (e.g. 0.2 = ±20 %).
func WithJitter(f float64) Option {
	return func(n *Net) { n.jitter = f }
}

// WithSenderStreams makes node i's sends draw loss and jitter from
// streams[i % len(streams)] instead of the kernel's one "netmodel" stream.
// It exists for E03, whose pinned outputs were recorded with one such
// stream per group of senders (DESIGN.md, "E03's stream layout"). An empty
// list leaves the default.
func WithSenderStreams(streams []*sim.RNG) Option {
	return func(n *Net) { n.rngs = streams }
}

// New creates an empty network bound to the simulator, drawing randomness
// from its "netmodel" stream. The transport's instruments register with the
// simulator's collector when it has one.
func New(s *sim.Sim, opts ...Option) *Net {
	n := &Net{kern: s, jitter: 0.1}
	for _, opt := range opts {
		opt(n)
	}
	if len(n.rngs) == 0 {
		n.rngs = []*sim.RNG{s.Stream("netmodel")}
	}
	if col := s.Observer(); col != nil {
		n.observe(col)
	}
	return n
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
	rng := n.rngs[len(n.nodes)%len(n.rngs)]
	n.nodes = append(n.nodes, nodeState{region: region, rng: rng, upBps: uplinkBps, downBps: downlinkBps, up: true, baseUp: true})
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

// Up reports a node's ambient state, the value SetUp last set (false for
// invalid ids). An outage window does not change it: delivery uses the
// effective state, which a window can only force down, so a message is
// delivered only to a node that is Up.
func (n *Net) Up(id NodeID) bool {
	return n.valid(id) && n.nodes[id].baseUp
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
// The draw comes from the sending node's stream.
func (n *Net) Latency(from, to NodeID) time.Duration {
	if !n.valid(from) || !n.valid(to) {
		return 0
	}
	a, b := n.nodes[from].region, n.nodes[to].region
	base := time.Duration(baseOneWay[a-1][b-1]) * time.Millisecond
	return n.nodes[from].rng.Jitter(base, n.jitter)
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

// deliver is the pooled delivery handler behind Send, SendFrom and
// Broadcast: Ctx is the *Net, Aux the caller's callback (Send's func(),
// Broadcast's func(NodeID), which takes the receiver's id, SendFrom's
// func(NodeID, NodeID), which takes both endpoints) and A/B the endpoints. The
// receiver must still be online and reachable at delivery time — a message
// in flight when a partition forms (or the receiver goes down) is dropped.
func deliver(p sim.Payload) {
	n := p.Ctx.(*Net)
	from, to := NodeID(p.A), NodeID(p.B)
	if !n.nodes[to].up || n.partitioned(from, to) {
		n.noteInFlightDrop(from, to)
		return
	}
	n.noteDelivered(to)
	switch f := p.Aux.(type) {
	case func():
		f()
	case func(NodeID):
		f(to)
	case func(NodeID, NodeID):
		f(from, to)
	}
}

// admit applies the transport's rules to one message between valid nodes,
// in this order: reachability, the loss draw, then the delay draw from the
// sender's stream. It records the outcome and returns the one-way delay of
// an admitted message. Send and Transfer both go through it.
func (n *Net) admit(from, to NodeID, size int) (time.Duration, bool) {
	if !n.reachable(from, to) {
		n.noteAdmissionDrop(from, to)
		return 0, false
	}
	if n.loss > 0 && n.nodes[from].rng.Bool(n.loss) {
		n.noteLossDrop(from, to)
		return 0, false
	}
	delay := n.TransferTime(from, to, size) + n.Latency(from, to)
	n.noteSend(from, to, size, delay)
	return delay, true
}

// Send schedules delivery of a message of size bytes from one node to
// another, invoking fn at the receive time. It returns false if the
// message was dropped (loss, partition, or an endpoint being offline at send
// time; delivery additionally checks the receiver is still online and
// unpartitioned). A message to an unreachable peer is never transmitted; a
// message lost to the loss draw was transmitted and then dropped in flight.
// Send is the transport's hot path: delivery rides the sim kernel's pooled
// handler events, so a steady-state Send performs zero allocations (the
// fn itself should be reused by callers that care).
func (n *Net) Send(from, to NodeID, size int, fn func()) bool {
	return fn != nil && n.post(from, to, size, fn)
}

// SendFrom is Send with a callback that receives both endpoints,
// fn(from, to). A protocol that carries its per-message state in who sent
// to whom binds one fn per conversation instead of one closure per message
// (the Gnutella flood binds one per query).
func (n *Net) SendFrom(from, to NodeID, size int, fn func(from, to NodeID)) bool {
	return fn != nil && n.post(from, to, size, fn)
}

// post is Send and SendFrom after the nil check: the endpoints' validity,
// admit, then one delivery of fn (a non-nil func value of a shape deliver
// knows) booked on the kernel.
func (n *Net) post(from, to NodeID, size int, fn any) bool {
	if !n.valid(from) || !n.valid(to) {
		return false
	}
	delay, ok := n.admit(from, to, size)
	if !ok {
		return false
	}
	p := sim.Payload{Ctx: n, Aux: fn, A: int64(from), B: int64(to)}
	return n.kern.AfterFunc(delay, deliver, p)
}

// Broadcast schedules one-pass delivery of size bytes from one node to
// every other online, reachable node, invoking fn(to) at each receive
// time. Copies serialize sequentially on the sender's uplink — the k-th
// receiver waits k uplink transfers plus its own downlink and propagation
// delay — which is what makes large blocks from low-bandwidth senders slow
// to blanket the network. Copies to offline or partitioned peers are never
// transmitted; a copy lost to the loss draw still consumed the sender's
// uplink slot (it was transmitted, then dropped in flight), so raising loss
// never speeds up the surviving copies. It returns the number of deliveries
// scheduled.
func (n *Net) Broadcast(from NodeID, size int, fn func(to NodeID)) int {
	if !n.valid(from) || fn == nil || !n.nodes[from].up {
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
		if n.loss > 0 && n.nodes[from].rng.Bool(n.loss) {
			n.noteLossDrop(from, to)
			continue
		}
		delay := uplink + serialization(n.nodes[to].downBps, size) + n.Latency(from, to)
		n.noteSend(from, to, size, delay)
		p := sim.Payload{Ctx: n, Aux: fn, A: int64(from), B: int64(to)}
		if n.kern.AfterFunc(delay, deliver, p) {
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
func (n *Net) Transfer(from, to NodeID, size int) (time.Duration, bool) {
	if !n.valid(from) || !n.valid(to) {
		return 0, false
	}
	delay, ok := n.admit(from, to, size)
	if ok {
		n.noteDelivered(to)
	}
	return delay, ok
}

// Call runs one request/response exchange under a deadline — the RPC every
// overlay issues. The deadline is scheduled first, then the request is sent.
// serve runs in the request's delivery and reports whether an answer goes
// back; whatever it computes for the requester it leaves in variables the
// caller's done reads.
// done(true, false) fires iff the response is delivered while the deadline
// is still pending; otherwise done(false, inFlight) fires exactly once, at
// the deadline, and a reply arriving later is dropped unseen. inFlight
// reports that the request is still on its way: serve may still run after
// done returns. With inFlight false, serve has run or never will. The
// exchange's own state comes from the net's pool, so a caller passing serve
// and done funcs it bound once makes a Call allocate nothing whenever the
// exchange goes back to the pool.
func (n *Net) Call(from, to NodeID, reqSize, respSize int, timeout time.Duration, serve func() bool, done func(ok, inFlight bool)) {
	x := n.exchange()
	x.from, x.to, x.respSize, x.serve, x.done = from, to, respSize, serve, done
	x.deadline = n.kern.After(timeout, x.expire)
	x.inFlight = n.Send(from, to, reqSize, x.request)
}

// exchange is the state of one Call, with its three event callbacks bound
// once per object. Each callback ends with settle (before calling done, so
// done may reuse the exchange): one rule returns it to the net's pool once
// no request and no response is in flight and no deadline is pending. A
// message dropped in flight cannot tell the exchange it is gone, so an
// exchange whose request or response is dropped is left to the garbage
// collector: a late serve must run on its own exchange, never on a reused
// one. A pooled exchange has neither flag set and no deadline pending.
type exchange struct {
	n                         *Net
	from, to                  NodeID
	respSize                  int
	serve                     func() bool
	done                      func(ok, inFlight bool)
	deadline                  sim.Handle
	inFlight                  bool // the request is on its way and serve has not run
	replying                  bool // the response is on its way
	expire, request, response func()
}

// exchange takes an exchange from the pool.
func (n *Net) exchange() *exchange {
	if last := len(n.calls) - 1; last >= 0 {
		x := n.calls[last]
		n.calls = n.calls[:last]
		return x
	}
	x := &exchange{n: n}
	x.expire, x.request, x.response = x.onDeadline, x.onRequest, x.onResponse
	return x
}

// settle returns x to its pool if no event can reach it any more.
func (x *exchange) settle() {
	if !x.inFlight && !x.replying && !x.deadline.Scheduled() {
		x.serve, x.done = nil, nil
		x.n.calls = append(x.n.calls, x)
	}
}

func (x *exchange) onDeadline() {
	done, inFlight := x.done, x.inFlight
	x.settle()
	done(false, inFlight)
}

func (x *exchange) onRequest() {
	x.inFlight = false
	if x.serve() {
		x.replying = x.n.Send(x.to, x.from, x.respSize, x.response)
	}
	x.settle()
}

func (x *exchange) onResponse() {
	done, answered := x.done, x.deadline.Scheduled()
	x.replying = false
	x.deadline.Cancel()
	x.settle()
	if answered {
		done(true, false)
	}
}
