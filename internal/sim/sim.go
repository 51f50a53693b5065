// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulated systems in this repository (overlays, blockchains, consensus
// protocols, edge topologies) are driven by a single Sim instance: events are
// callbacks scheduled at virtual timestamps, executed strictly in (time,
// sequence) order from a 4-ary heap. There is no wall-clock dependence and no
// concurrency inside a run, so a (seed, configuration) pair always reproduces
// the same trajectory bit-for-bit.
//
// Cancellation is eager: Handle.Cancel (and Ticker.Stop) removes the event
// from the heap immediately and recycles it, so canceled timers do not
// linger until their fire time, Pending reports the exact live-event count,
// and a stopped Ticker's closure is collectable at once. Removal preserves
// (time, sequence) order of the remaining events, so canceling never
// perturbs determinism.
//
// Every event — closure (At/After/Every) and handler (AtFunc/AfterFunc)
// alike — is drawn from a per-Sim free list and recycled the moment it
// fires or is canceled, so steady-state scheduling allocates nothing on
// either path. Because recycled events are reused, callers never hold
// *event pointers: scheduling returns a by-value Handle carrying the
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

// event is a scheduled callback slot. Slots live on a per-Sim free list and
// are reused across schedules; gen counts reuses so stale Handles can detect
// that "their" event is gone.
//
// Events come in two flavours. Closure events (At/After/Every) carry a
// fresh fn closure and hand the caller a Handle for cancellation. Handler
// events (AtFunc/AfterFunc) carry a shared Handler plus an inline Payload
// instead of a closure and return no handle — the hot-path contract is
// fire-and-forget.
type event struct {
	at       time.Duration
	fn       func()
	h        Handler
	p        Payload
	owner    *Sim
	index    int    // position in the heap, -1 once recycled
	gen      uint64 // bumped on every recycle; Handles snapshot it
	nextFree *event // free-list link for recycled events
}

// Handle refers to a scheduled closure event. It is a small by-value pair
// (slot pointer + generation), so handles can be stored, copied and kept
// past the event's lifetime freely: once the event fires, is canceled, or
// its slot is reused, the generation no longer matches and the handle is
// inert. The zero Handle is valid and refers to nothing.
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
//
//decentlint:hotpath
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

// At returns the virtual time the event is scheduled to fire, or 0 if the
// handle is no longer live.
func (h Handle) At() time.Duration {
	if !h.Scheduled() {
		return 0
	}
	return h.ev.at
}

// Payload is the inline argument block of a handler event. Ctx and Aux hold
// pointer-shaped values (pointers, funcs, maps, channels), which convert to
// interface values without allocating; A and B carry scalar operands
// (ids, sizes, or float64 bits via math.Float64bits). Together they let a
// hot path schedule delivery work with zero per-event allocations.
type Payload struct {
	// Ctx is the scheduling subsystem's context (e.g. a *netmodel.Net).
	Ctx any
	// Aux is a secondary reference, typically a caller-supplied callback.
	Aux any
	// A, B are scalar operands whose meaning the Handler defines.
	A, B int64
}

// Handler consumes a handler event's payload at fire time. Handlers should
// be package-level functions (or otherwise long-lived func values): the
// whole point of the handler path is that scheduling one does not allocate
// a closure per event.
type Handler func(p Payload)

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
	free       *event // recycled event slots
	observer   *obs.Collector
}

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

// PeekTime returns the timestamp of the earliest pending event. ok is
// false when nothing is scheduled. The sharded driver uses it to skip
// windows with no work (the lookahead jump is worker-count invariant).
func (s *Sim) PeekTime() (t time.Duration, ok bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// MaxPending returns the high-water mark of the pending-event count — the
// peak schedule depth the run reached.
func (s *Sim) MaxPending() int { return s.maxPending }

// Observer returns the telemetry collector attached via WithObserver, or
// nil when telemetry is off.
func (s *Sim) Observer() *obs.Collector { return s.observer }

// push enqueues an event slot and tracks the schedule's high-water mark.
//
//decentlint:hotpath
func (s *Sim) push(ev *event) {
	e := entry{at: ev.at, seq: s.seq, ev: ev}
	s.seq++
	s.queue = append(s.queue, e) //decentlint:allow hotpath backing-array growth is amortized; slots recycle through the free list in steady state
	s.queue.siftUp(len(s.queue)-1, e)
	if len(s.queue) > s.maxPending {
		s.maxPending = len(s.queue)
	}
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
	ev.at, ev.fn = t, fn
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

// AtFunc schedules h to run with payload p at absolute virtual time t. It is
// the handle-free counterpart of At for per-message hot paths: no Handle is
// returned and the event cannot be canceled; use At when you need
// cancellation. Scheduling in the past or with a nil handler is a no-op
// returning false.
//
//decentlint:hotpath
func (s *Sim) AtFunc(t time.Duration, h Handler, p Payload) bool {
	if t < s.now || h == nil {
		return false
	}
	ev := s.takeEvent()
	ev.at, ev.h, ev.p = t, h, p
	s.push(ev)
	return true
}

// AfterFunc schedules h to run with payload p after delay d — the pooled,
// closure-free variant of After. Negative delays clamp to zero. See AtFunc
// for the recycling contract.
//
//decentlint:hotpath
func (s *Sim) AfterFunc(d time.Duration, h Handler, p Payload) bool {
	if d < 0 {
		d = 0
	}
	return s.AtFunc(s.now+d, h, p)
}

// takeEvent pops a recycled event slot or allocates a fresh one; the
// allocation happens only on pool miss, so steady state stays at zero.
//
//decentlint:hotpath
func (s *Sim) takeEvent() *event {
	if ev := s.free; ev != nil {
		s.free = ev.nextFree
		ev.nextFree = nil
		return ev
	}
	return &event{owner: s}
}

// releaseEvent clears a fired or canceled event, bumps its generation so
// outstanding Handles go inert, and pushes it on the free list.
//
//decentlint:hotpath
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
	t.schedule()
	return t, nil
}

func (t *Ticker) schedule() {
	t.next = t.sim.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	})
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
	err := s.drain(horizon, true)
	if err == nil && horizon > s.now && horizon != time.Duration(math.MaxInt64) {
		s.now = horizon
	}
	return err
}

// runBefore executes events with timestamps strictly below end and leaves the
// clock at the last fired event. It is the window primitive of the sharded
// driver (sharded.go): the exclusive bound keeps an event at exactly the
// window end for the next window, after the barrier has merged any
// cross-shard arrivals landing at that same instant.
func (s *Sim) runBefore(end time.Duration) error {
	return s.drain(end, false)
}

// drain is the execution core shared by RunUntil and runBefore: it pops and
// fires events while the head timestamp is within the bound (inclusive or
// exclusive). The clock is left at the last fired event.
func (s *Sim) drain(bound time.Duration, inclusive bool) error {
	if s.stopped {
		s.stopped = false
		return ErrStopped
	}
	for len(s.queue) > 0 {
		at, next := s.queue[0].at, s.queue[0].ev
		if at > bound || (!inclusive && at == bound) {
			break
		}
		s.queue.removeAt(0)
		// Cancel removes events from the heap eagerly, so a popped event
		// is always live.
		s.now = at
		s.fired++
		// Recycle before invoking so the callback's own scheduling can
		// reuse the slot — the steady-state fast path for both flavours.
		// The release bumps the generation, so a Handle to this event is
		// already inert inside its own callback.
		if next.h != nil {
			h, p := next.h, next.p
			s.releaseEvent(next)
			h(p)
		} else {
			fn := next.fn
			s.releaseEvent(next)
			fn()
		}
		if s.stopped {
			s.stopped = false
			return ErrStopped
		}
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
//
//decentlint:hotpath
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
//
//decentlint:hotpath
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
//
//decentlint:hotpath
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
