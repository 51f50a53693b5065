// Package obs is the run-telemetry layer: named counters with
// (node-range × region) lanes, constant-memory streaming histograms, an
// optional Chrome trace-event buffer, and host resource sampling.
//
// The package is a leaf — it imports only the standard library — so every
// layer of the simulator (kernel, transport, harness, report, CLI) can
// depend on it without cycles.
//
// Two disciplines govern the design:
//
// Zero cost when off. Telemetry is represented by a *Collector; nil means
// "off". Every recording method (Counter.Add, Histogram.Observe,
// Trace.Emit, ...) is a method with a nil-receiver no-op, so an
// instrumented hot path pays one predictable branch and zero allocations
// when telemetry is disabled. Instrumentation sites therefore never need
// their own guards.
//
// Determinism when on. A Collector is owned by exactly one run (one
// simulation, one goroutine). Nothing in this package reads the wall clock
// or global state on the recording path; counters, histogram buckets and
// trace timestamps are all derived from virtual time and integer
// arithmetic, so the snapshot and trace emitted by a run are byte-identical
// regardless of how many runs execute in parallel around it. The only
// machine-dependent piece is host sampling (host.go), which reads runtime
// heap and allocation metrics but no clock, and is kept out of the
// deterministic snapshot entirely.
package obs

import (
	"sort"
	"strconv"
	"time"
)

// maxNodeRanges bounds the node-id dimension of counter lanes: node ids are
// partitioned into at most this many contiguous ranges (quartiles of the
// largest node space seen before the first recording).
const maxNodeRanges = 4

// Collector is the telemetry sink for one run. The zero value is not
// usable; construct with NewCollector. A nil *Collector disables telemetry:
// all methods on it (and on the nil instruments it hands out) are no-ops.
// A Collector is not safe for concurrent use: every kernel observed by it
// must run on one goroutine at a time, which is why a run whose parts
// would otherwise fan out over several cores runs them one after another
// when it carries a Collector.
type Collector struct {
	regions   []string
	bounds    []int // ascending node-range upper bounds (exclusive); last is the node space
	nodeSpace int   // largest node count announced via SetNodeSpace
	sealed    bool  // lane geometry locked by the first recording
	counters  []*Counter
	counterBy map[string]*Counter
	hists     []*Histogram
	histBy    map[string]*Histogram
	trace     *Trace
	sims      []SimStats
}

// Option configures a Collector.
type Option func(*Collector)

// WithTrace enables the event trace with the given buffer limit (events
// beyond the limit are dropped and counted, keeping memory bounded).
func WithTrace(limit int) Option {
	return func(c *Collector) { c.trace = newTrace(limit) }
}

// NewCollector builds an empty collector. With no options it has a single
// region ("all") and a single node range, so lane machinery costs nothing
// until a caller configures dimensions.
func NewCollector(opts ...Option) *Collector {
	c := &Collector{
		counterBy: make(map[string]*Counter),
		histBy:    make(map[string]*Histogram),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// SetRegions installs region labels if none are set yet; it is a nil-safe
// no-op once lanes are sealed. Subsystems that know their region space
// (e.g. the WAN transport) call it before traffic flows.
func (c *Collector) SetRegions(names []string) {
	if c == nil || c.sealed || len(c.regions) > 0 {
		return
	}
	c.regions = append([]string(nil), names...)
}

// SetNodeSpace announces the number of node ids in play. Until the first
// recording seals lane geometry, the largest announced space defines the
// automatic quartile node ranges. Nil-safe and cheap, so attachment sites
// (AddNode loops) may call it unconditionally.
func (c *Collector) SetNodeSpace(n int) {
	if c == nil || c.sealed || n <= c.nodeSpace {
		return
	}
	c.nodeSpace = n
}

// seal locks lane geometry and sizes every instrument's lane array. Called
// by the first recording on any counter.
func (c *Collector) seal() {
	if c.sealed {
		return
	}
	c.sealed = true
	if len(c.regions) == 0 {
		c.regions = []string{"all"}
	}
	n := c.nodeSpace
	if n <= 0 {
		n = 1
	}
	if n <= maxNodeRanges {
		c.bounds = []int{n}
	} else {
		c.bounds = make([]int, maxNodeRanges)
		for i := 1; i <= maxNodeRanges; i++ {
			c.bounds[i-1] = (n*i + maxNodeRanges - 1) / maxNodeRanges
		}
	}
	lanes := len(c.bounds) * len(c.regions)
	for _, ctr := range c.counters {
		ctr.lanes = make([]uint64, lanes)
	}
}

// laneIndex maps (node, region) to a lane. Linear scan: bounds has at most
// maxNodeRanges entries.
func (c *Collector) laneIndex(node, region int) int {
	ri := 0
	if region >= 0 && region < len(c.regions) {
		ri = region
	}
	bi := len(c.bounds) - 1
	for i, b := range c.bounds {
		if node < b {
			bi = i
			break
		}
	}
	return bi*len(c.regions) + ri
}

// Counter registers (or returns the existing) named counter.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	if ctr, ok := c.counterBy[name]; ok {
		return ctr
	}
	ctr := &Counter{col: c, name: name}
	if c.sealed {
		ctr.lanes = make([]uint64, len(c.bounds)*len(c.regions))
	}
	c.counters = append(c.counters, ctr)
	c.counterBy[name] = ctr
	return ctr
}

// Histogram registers (or returns the existing) named histogram.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	if h, ok := c.histBy[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	c.hists = append(c.hists, h)
	c.histBy[name] = h
	return h
}

// Trace returns the event trace, or nil when tracing is off (or the
// collector itself is nil). All Trace methods are nil-safe.
func (c *Collector) Trace() *Trace {
	if c == nil {
		return nil
	}
	return c.trace
}

// SimStats is the slice of a simulation kernel the collector reads at
// snapshot time: events executed, high-water pending count, and the
// virtual clock.
type SimStats interface {
	Fired() uint64
	MaxPending() int
	Now() time.Duration
}

// AttachSim registers a kernel whose run statistics the snapshot should
// include. Experiments may create several kernels sequentially; stats sum
// across all of them. Nil-safe.
func (c *Collector) AttachSim(s SimStats) {
	if c == nil || s == nil {
		return
	}
	c.sims = append(c.sims, s)
}

// Counter is a named monotonic counter with (node-range × region) lanes.
type Counter struct {
	col   *Collector
	name  string
	lanes []uint64
}

// Add records v against the lane holding (node, region). Nil-safe: the
// instrumented hot path calls it unconditionally and pays one branch when
// telemetry is off.
func (c *Counter) Add(node, region int, v uint64) {
	if c == nil {
		return
	}
	if c.lanes == nil {
		c.col.seal()
	}
	c.lanes[c.col.laneIndex(node, region)] += v
}

// Total returns the counter's sum over all lanes (at most maxNodeRanges ×
// regions of them).
func (c *Counter) Total() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for _, v := range c.lanes {
		t += v
	}
	return t
}

// CounterLane is one nonzero lane of a counter snapshot.
type CounterLane struct {
	Nodes  string `json:"nodes"`
	Region string `json:"region"`
	Value  uint64 `json:"value"`
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string        `json:"name"`
	Total uint64        `json:"total"`
	Lanes []CounterLane `json:"lanes,omitempty"`
}

// HistSnap summarizes one histogram: population moments plus interpolated
// quantiles (see hist.go for the bucketing scheme).
type HistSnap struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// SimSnap is the kernel statistics over all attached kernels: events fired
// and virtual time are sums, MaxPending is the largest single kernel's peak.
type SimSnap struct {
	Fired       uint64 `json:"events_fired"`
	MaxPending  int    `json:"max_pending"`
	VirtualNano int64  `json:"virtual_ns"`
}

// Snapshot is the deterministic end-of-run summary: everything here is a
// pure function of the run trajectory, never of the host machine.
type Snapshot struct {
	Sim          SimSnap       `json:"sim"`
	Counters     []CounterSnap `json:"counters,omitempty"`
	Hists        []HistSnap    `json:"histograms,omitempty"`
	TraceEvents  int           `json:"trace_events,omitempty"`
	TraceDropped uint64        `json:"trace_dropped,omitempty"`
}

// rangeLabel renders the node range ending at bound index i.
func (c *Collector) rangeLabel(i int) string {
	lo := 0
	if i > 0 {
		lo = c.bounds[i-1]
	}
	hi := c.bounds[i] - 1
	if lo >= hi {
		return "n" + strconv.Itoa(lo)
	}
	return "n" + strconv.Itoa(lo) + "-" + strconv.Itoa(hi)
}

// Snapshot renders the deterministic run summary, instruments sorted by
// name. Nil-safe: a nil collector yields the zero snapshot.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	for _, sim := range c.sims {
		s.Sim.Fired += sim.Fired()
		if mp := sim.MaxPending(); mp > s.Sim.MaxPending {
			s.Sim.MaxPending = mp
		}
		s.Sim.VirtualNano += int64(sim.Now())
	}
	for _, ctr := range c.counters {
		snap := CounterSnap{Name: ctr.name, Total: ctr.Total()}
		for li, v := range ctr.lanes {
			if v == 0 {
				continue
			}
			snap.Lanes = append(snap.Lanes, CounterLane{
				Nodes:  c.rangeLabel(li / len(c.regions)),
				Region: c.regions[li%len(c.regions)],
				Value:  v,
			})
		}
		s.Counters = append(s.Counters, snap)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for _, h := range c.hists {
		s.Hists = append(s.Hists, HistSnap{
			Name: h.name, Count: h.count, Sum: h.sum, Min: h.Min(), Max: h.max,
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	if c.trace != nil {
		s.TraceEvents = len(c.trace.events)
		s.TraceDropped = c.trace.dropped
	}
	return s
}

// Histograms returns the registered histograms sorted by name, for callers
// (the report renderer) that plot full quantile curves rather than the
// snapshot's three summary points.
func (c *Collector) Histograms() []*Histogram {
	if c == nil {
		return nil
	}
	out := append([]*Histogram(nil), c.hists...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
