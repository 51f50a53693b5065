// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulated systems in this repository (overlays, blockchains, consensus
// protocols, edge topologies) are driven by a single Sim instance: events are
// callbacks scheduled at virtual timestamps, executed strictly in (time,
// sequence) order from a 4-ary heap. There is no wall-clock dependence and no
// concurrency inside a kernel, so a (seed, configuration) pair always
// reproduces the same trajectory bit-for-bit. A run may hold several
// kernels, each driven by one goroutine; kernels share no state.
//
// Cancellation is eager: Handle.Cancel (and Ticker.Stop) removes the event
// from the heap immediately and recycles it, so canceled timers do not
// linger until their fire time, Pending reports the exact live-event count,
// and a stopped Ticker's closure is collectable at once. Removal preserves
// (time, sequence) order of the remaining events, so canceling never
// perturbs determinism.
//
// Every event has one shape: a Handler and the Payload it fires with. A
// closure scheduled with At/After/Every rides the same shape — its Handler
// is a trampoline that calls the closure parked in Payload.Aux — so the run
// loop fires every event one way. Events are drawn from a per-Sim free list
// and recycled the moment they fire or are canceled, so steady-state
// scheduling allocates nothing beyond a caller's closure. When the free
// list is empty, a slot is carved from the Sim's current chunk of slots;
// chunks start at 64 slots and double up to 1 024, so a growing schedule
// allocates one object per chunk, not one per event, and the heap array
// grows by doubling. Because recycled events are reused, callers never hold
// *event pointers: At and After return a by-value Handle carrying the
// event's generation number, which makes a stale Cancel (after the event
// fired, was canceled, or its slot was reused) a safe no-op.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// ErrStopped is returned by Run variants when the simulation was halted by an
// explicit call to Stop rather than by reaching its natural end.
var ErrStopped = errors.New("sim: stopped")

// event is a scheduled callback slot: h fires with p at time at. Slots live
// on a per-Sim free list and are reused across schedules; gen counts reuses
// so stale Handles can detect that "their" event is gone. A closure event
// (At/After/Every) is h = callClosure with the closure in p.Aux; AfterFunc
// stores the caller's shared Handler and Payload as they are.
type event struct {
	at       time.Duration
	h        Handler
	p        Payload
	owner    *Sim
	index    int    // position in the heap, -1 once recycled
	gen      uint64 // bumped on every recycle; Handles snapshot it
	nextFree *event // free-list link for recycled events
}

// Handle refers to an event scheduled with At or After. It is a small
// by-value pair (slot pointer + generation), so handles can be stored,
// copied and kept past the event's lifetime freely: once the event fires,
// is canceled, or its slot is reused, the generation no longer matches and
// the handle is inert. The zero Handle is valid and refers to nothing.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. The event is removed from the
// schedule eagerly and its slot recycled, so canceling is O(log n) now
// rather than a deferred skip at fire time: a canceled long-horizon timer
// neither pins its closure nor inflates Pending, and its slot is
// immediately reusable — a schedule/cancel loop allocates nothing.
// Canceling an event that already fired (or was already canceled), or a
// zero Handle, is a no-op.
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index < 0 {
		return
	}
	s := ev.owner
	s.queue.removeAt(ev.index)
	s.releaseEvent(ev)
}

// Scheduled reports whether the event is still pending: not yet fired and
// not canceled. The zero Handle reports false.
func (h Handle) Scheduled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// IsZero reports whether the handle never referred to an event — i.e. it is
// the zero Handle, as returned for rejected schedules. A fired or canceled
// handle is not zero: IsZero distinguishes "nothing was ever scheduled"
// from "the event ran its course".
func (h Handle) IsZero() bool { return h.ev == nil }

// Payload is the inline argument block every event fires with. Ctx and Aux
// hold pointer-shaped values (pointers, funcs, maps, channels), which
// convert to interface values without allocating; A and B carry scalar
// operands (ids, sizes, or float64 bits via math.Float64bits). Together
// they let a hot path schedule delivery work with zero per-event
// allocations. A closure event carries its closure in Aux and nothing else.
type Payload struct {
	// Ctx is the scheduling subsystem's context (e.g. a *netmodel.Net).
	Ctx any
	// Aux is a secondary reference, typically a caller-supplied callback.
	Aux any
	// A, B are scalar operands whose meaning the Handler defines.
	A, B int64
}

// Handler consumes an event's payload at fire time. Handlers passed to
// AfterFunc should be package-level functions (or otherwise long-lived func
// values), so that scheduling one does not allocate a closure per event.
type Handler func(p Payload)

// callClosure is the Handler of every closure event: At parks the closure
// in Aux.
func callClosure(p Payload) { p.Aux.(func())() }

// Sim is a discrete-event simulator. The zero value is not usable; construct
// instances with New.
type Sim struct {
	queue      eventQueue
	now        time.Duration
	seq        uint64
	fired      uint64
	maxPending int
	stopped    bool
	seed       int64
	streams    map[string]*RNG
	free       *event  // recycled event slots
	chunk      []event // fresh slots not yet handed out, carved from the front
	chunkSize  int     // the length of the last chunk allocated
	observer   *obs.Collector
}

// The bounds of a chunk of fresh event slots: the first chunk of a Sim holds
// minChunk slots and each later one twice the last, up to maxChunk, so a
// small kernel stays small and a deep one allocates once per maxChunk
// events.
const (
	minChunk = 64
	maxChunk = 1024
)

// Option configures a Sim created by New.
type Option func(*Sim)

// WithSeed sets the master seed from which all named RNG streams are derived.
// Runs with equal seeds and equal event orderings are identical.
func WithSeed(seed int64) Option {
	return func(s *Sim) { s.seed = seed }
}

// WithObserver attaches a telemetry collector. Subsystems built on the Sim
// (the netmodel transport in particular) discover it via Observer and
// register their instruments against it; the Sim itself registers its
// kernel statistics (events fired, peak pending, virtual time) with the
// collector's snapshot. A nil collector leaves telemetry off.
func WithObserver(c *obs.Collector) Option {
	return func(s *Sim) {
		s.observer = c
		c.AttachSim(s)
	}
}

// New constructs an empty simulator positioned at virtual time zero.
func New(opts ...Option) *Sim {
	s := &Sim{
		seed:    1,
		streams: make(map[string]*RNG),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Now returns the current virtual time, measured from the start of the run.
func (s *Sim) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the exact number of live events currently scheduled;
// canceled events are removed from the schedule immediately and never
// counted.
func (s *Sim) Pending() int { return len(s.queue) }

// MaxPending returns the high-water mark of the pending-event count — the
// peak schedule depth the run reached.
func (s *Sim) MaxPending() int { return s.maxPending }

// Observer returns the telemetry collector attached via WithObserver, or
// nil when telemetry is off.
func (s *Sim) Observer() *obs.Collector { return s.observer }

// push enqueues an event slot and tracks the schedule's high-water mark.
func (s *Sim) push(ev *event) {
	e := entry{at: ev.at, seq: s.seq, ev: ev}
	s.seq++
	if len(s.queue) == cap(s.queue) {
		s.growQueue()
	}
	s.queue = append(s.queue, e) // growQueue has made room: this append never reallocates
	s.queue.siftUp(len(s.queue)-1, e)
	if len(s.queue) > s.maxPending {
		s.maxPending = len(s.queue)
	}
}

// growQueue doubles the heap's backing array. append alone grows a large
// slice by a quarter, which re-copies a deep schedule (E02 holds 1.6 × 10⁵
// pending events) about five times over on its way up.
func (s *Sim) growQueue() {
	grown := make(eventQueue, len(s.queue), max(2*cap(s.queue), minChunk))
	copy(grown, s.queue)
	s.queue = grown
}

// At schedules fn to run at absolute virtual time t and returns a Handle
// for cancellation. Scheduling in the past is an error surfaced by
// returning the zero Handle and scheduling nothing; the simulator
// deliberately never panics on behalf of library callers. The event slot
// comes from the free list and is recycled when it fires or is canceled,
// so steady-state closure scheduling allocates nothing beyond the
// closure itself.
func (s *Sim) At(t time.Duration, fn func()) Handle {
	if t < s.now || fn == nil {
		return Handle{}
	}
	ev := s.takeEvent()
	ev.at, ev.h, ev.p.Aux = t, callClosure, fn
	s.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time. Negative delays
// are clamped to zero so the event fires "immediately" (after already-queued
// events at the current instant).
func (s *Sim) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AfterFunc schedules h to run with payload p after delay d — the
// closure-free variant of After for per-message hot paths. Negative delays
// clamp to zero. No Handle is returned and the event cannot be canceled;
// use After when you need cancellation. A nil handler, or a delay that
// overflows the clock, schedules nothing and returns false.
func (s *Sim) AfterFunc(d time.Duration, h Handler, p Payload) bool {
	if d < 0 {
		d = 0
	}
	t := s.now + d
	if t < s.now || h == nil {
		return false
	}
	ev := s.takeEvent()
	ev.at, ev.h, ev.p = t, h, p
	s.push(ev)
	return true
}

// takeEvent pops a recycled event slot, or else carves a fresh one from the
// current chunk; a new chunk is allocated only when both are exhausted, so
// steady state stays at zero.
func (s *Sim) takeEvent() *event {
	if ev := s.free; ev != nil {
		s.free = ev.nextFree
		ev.nextFree = nil
		return ev
	}
	if len(s.chunk) == 0 {
		s.chunkSize = min(max(2*s.chunkSize, minChunk), maxChunk)
		s.chunk = make([]event, s.chunkSize)
	}
	ev := &s.chunk[0]
	s.chunk = s.chunk[1:]
	ev.owner = s
	return ev
}

// releaseEvent clears a fired or canceled event, bumps its generation so
// outstanding Handles go inert, and pushes it on the free list.
func (s *Sim) releaseEvent(ev *event) {
	gen := ev.gen + 1
	*ev = event{owner: s, gen: gen, index: -1, nextFree: s.free}
	s.free = ev
}

// Ticker repeatedly schedules a callback at a fixed period until stopped.
type Ticker struct {
	sim     *Sim
	period  time.Duration
	fn      func()
	tick    func() // fire, bound once so a tick schedules without allocating
	next    Handle
	stopped bool
}

// Every starts a ticker whose callback first fires after one period and then
// every period thereafter. It returns an error for non-positive periods.
func (s *Sim) Every(period time.Duration, fn func()) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ticker period %v is not positive", period)
	}
	if fn == nil {
		return nil, errors.New("sim: ticker callback is nil")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.tick = t.fire
	t.schedule()
	return t, nil
}

func (t *Ticker) schedule() { t.next = t.sim.After(t.period, t.tick) }

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

// Stop halts the ticker. It is safe to call multiple times.
func (t *Ticker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.next.Cancel()
}

// Stop halts the simulation: the current Run call returns ErrStopped after
// the in-flight event completes. Calling Stop while no Run variant is in
// flight is not lost — the next Run variant returns ErrStopped immediately,
// before executing any event.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// nil on natural exhaustion and ErrStopped otherwise.
func (s *Sim) Run() error {
	return s.RunUntil(time.Duration(math.MaxInt64))
}

// RunFor executes events for d of virtual time from now, then returns. The
// clock is advanced to now+d even if the queue empties earlier, so subsequent
// scheduling is relative to the horizon.
func (s *Sim) RunFor(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	return s.RunUntil(s.now + d)
}

// RunUntil executes events with timestamps <= horizon, then sets the clock to
// horizon. It returns ErrStopped if Stop was called, nil otherwise. A Stop
// issued before the call (with no Run in flight) makes it return ErrStopped
// immediately without executing anything; the stop is consumed either way, so
// the following Run variant proceeds normally.
func (s *Sim) RunUntil(horizon time.Duration) error {
	if s.stopped {
		s.stopped = false
		return ErrStopped
	}
	for len(s.queue) > 0 {
		at, next := s.queue[0].at, s.queue[0].ev
		if at > horizon {
			break
		}
		s.queue.removeAt(0)
		// Cancel removes events from the heap eagerly, so a popped event
		// is always live.
		s.now = at
		s.fired++
		// Recycle before invoking so the callback's own scheduling can
		// reuse the slot — the steady-state fast path. The release bumps
		// the generation, so a Handle to this event is already inert
		// inside its own callback.
		h, p := next.h, next.p
		s.releaseEvent(next)
		h(p)
		if s.stopped {
			s.stopped = false
			return ErrStopped
		}
	}
	if horizon > s.now && horizon != time.Duration(math.MaxInt64) {
		s.now = horizon
	}
	return nil
}

// entry is one heap slot: the (at, seq) key beside the event it orders, so a
// comparison never dereferences the event.
type entry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// before orders by time, then seq: same-instant events fire as scheduled.
func (e entry) before(o entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is a min-heap of entries with fan-out arity (slot i's children
// are arity*i+1 … arity*i+arity; 4 halves the levels a sift crosses against 2,
// BenchmarkKernelDeepHeap measures the choice). Sifting moves a hole, not swaps:
// each displaced entry and its event's index back-pointer is written once.
type eventQueue []entry

const arity = 4

// siftUp places e at slot i or above.
func (q eventQueue) siftUp(i int, e entry) {
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = e
	e.ev.index = i
}

// siftDown places e at slot i or below.
func (q eventQueue) siftDown(i int, e entry) {
	for c := arity*i + 1; c < len(q); c = arity*i + 1 {
		m := c // the earliest-firing child
		for j, end := c+1, min(c+arity, len(q)); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(e) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = e
	e.ev.index = i
}

// removeAt takes slot i out of the heap — the root on fire, any slot on Cancel
// — and refills it with the last entry, which may belong above i when i is off
// that entry's root path. The caller releases the removed event (resetting its
// index). The vacated slot is not cleared: a Sim never lets go of an event.
func (q *eventQueue) removeAt(i int) {
	n := len(*q) - 1
	h, last := (*q)[:n], (*q)[n]
	*q = h
	switch {
	case i == n: // the last slot itself: nothing to refill
	case i > 0 && last.before(h[(i-1)/arity]):
		h.siftUp(i, last)
	default:
		h.siftDown(i, last)
	}
}
