package sim

// Conservative-window sharded driver. A ShardedSim partitions one simulation
// into S independent Sim kernels ("logical shards") and advances them through
// conservative time windows: within a window each shard executes its own
// events with no cross-shard interleaving, which is sound exactly when no
// event can affect another shard before the window ends. The caller picks
// the window from the model's cross-shard delay floor (see
// netmodel.DelayFloor); the driver enforces the rule at run time and fails
// loudly on violations instead of silently diverging.
//
// Every window runs its shards in index order on the caller's goroutine.
// Cross-shard events park in per-source outboxes during a window and are
// merged at the barrier in (time, seq, source shard) order, so a run is a
// pure function of the seed and the shard structure. DESIGN.md ("Sharded
// kernel") says why the driver remains: E03's bytes are pinned on it.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

const maxDuration = time.Duration(math.MaxInt64)

// crossEvent is one cross-shard handler event parked in its source shard's
// outbox until the next window barrier.
type crossEvent struct {
	at   time.Duration
	seq  uint64 // per-source-shard outbox sequence
	from int32
	to   int32
	h    Handler
	p    Payload
}

// mailboxOrder sorts the barrier merge scratch in (time, seq, source shard)
// order. Methods sit on the pointer so the sort.Interface conversion in
// drainOutboxes stays allocation-free.
type mailboxOrder []crossEvent

func (m *mailboxOrder) Len() int { return len(*m) }

func (m *mailboxOrder) Less(i, j int) bool {
	s := *m
	if s[i].at != s[j].at {
		return s[i].at < s[j].at
	}
	if s[i].seq != s[j].seq {
		return s[i].seq < s[j].seq
	}
	return s[i].from < s[j].from
}

func (m *mailboxOrder) Swap(i, j int) {
	s := *m
	s[i], s[j] = s[j], s[i]
}

// violation records the first window-rule breach observed by a source shard:
// a cross-shard post due before the posting shard's own window ended.
type violation struct {
	bad bool
	at  time.Duration
	end time.Duration
}

// ShardedSim drives a fixed set of Sim kernels through conservative windows.
// Construct with NewSharded; populate shards via Shard (setup is sequential,
// exactly like a single kernel); run with Run/RunUntil/RunFor.
type ShardedSim struct {
	shards []*Sim
	window time.Duration

	outbox  [][]crossEvent // per-source-shard mailboxes, drained at barriers
	outSeq  []uint64       // per-source-shard mailbox sequence counters
	violate []violation    // per-source-shard window-rule breaches
	merged  mailboxOrder   // reusable barrier merge scratch

	curEnd  time.Duration // exclusive end of the window being executed, 0 at barriers
	stopped bool
}

// NewSharded constructs a driver with the given logical shard count and
// conservative window. The shard count is a structural property of the
// simulation (how state is partitioned); the window must not exceed the
// minimum time a shard needs to affect another. It errors on a non-positive
// shard count or window rather than producing a driver that cannot uphold
// its determinism contract. opts are the ordinary kernel options, applied to
// every shard: WithSeed is the master seed from which shard i derives its
// own (so its named RNG streams are stable regardless of what other shards
// consume), and a collector attached WithObserver sums kernel statistics
// across shards.
func NewSharded(shards int, window time.Duration, opts ...Option) (*ShardedSim, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: sharded driver needs at least one shard, got %d", shards)
	}
	if window <= 0 {
		return nil, fmt.Errorf("sim: sharded window %v is not positive", window)
	}
	ss := &ShardedSim{
		shards:  make([]*Sim, shards),
		window:  window,
		outbox:  make([][]crossEvent, shards),
		outSeq:  make([]uint64, shards),
		violate: make([]violation, shards),
	}
	for i := range ss.shards {
		k := New(opts...)
		k.seed = deriveSeed(k.seed, "shard:"+strconv.Itoa(i))
		ss.shards[i] = k
	}
	return ss, nil
}

// ShardCount returns the number of logical shards.
func (ss *ShardedSim) ShardCount() int { return len(ss.shards) }

// Shard returns the i-th shard kernel. Scheduling directly on a shard is the
// setup-time API (and the intra-shard hot path during a run); events that
// cross shards during a run must go through Post.
func (ss *ShardedSim) Shard(i int) *Sim { return ss.shards[i] }

// Now returns the driver's virtual time: the maximum across shard clocks.
// After RunUntil/RunFor all shard clocks agree on the horizon.
func (ss *ShardedSim) Now() time.Duration {
	var now time.Duration
	for _, sh := range ss.shards {
		if sh.now > now {
			now = sh.now
		}
	}
	return now
}

// Fired sums events executed across shards.
func (ss *ShardedSim) Fired() uint64 {
	var n uint64
	for _, sh := range ss.shards {
		n += sh.fired
	}
	return n
}

// Pending counts live events across shard schedules and parked mailboxes.
func (ss *ShardedSim) Pending() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.Pending()
	}
	for i := range ss.outbox {
		n += len(ss.outbox[i])
	}
	return n
}

// Stop halts the run at the next window barrier: in-flight windows complete
// (keeping shard state consistent at a window boundary), then the Run
// variant returns ErrStopped. Safe to call from any shard's callback; a Stop
// with no run in flight makes the next Run variant return ErrStopped
// immediately, mirroring Sim.Stop.
func (ss *ShardedSim) Stop() { ss.stopped = true }

// Post parks a handler event for another shard's kernel; it is delivered at
// the next window barrier and scheduled there in (time, seq, source shard)
// order. Posting with a fire time inside the source shard's current window
// breaks the conservative contract: the post is recorded and the run fails
// at the barrier. Invalid shard indexes, nil handlers and negative times are
// rejected by returning false, like AtFunc.
//
//decentlint:hotpath
func (ss *ShardedSim) Post(from, to int, at time.Duration, h Handler, p Payload) bool {
	if from < 0 || from >= len(ss.shards) || to < 0 || to >= len(ss.shards) || h == nil || at < 0 {
		return false
	}
	if end := ss.curEnd; end != 0 && at < end && !ss.violate[from].bad {
		ss.violate[from] = violation{bad: true, at: at, end: end}
	}
	ss.outSeq[from]++
	ss.outbox[from] = append(ss.outbox[from], crossEvent{ //decentlint:allow hotpath outbox backing arrays are reused across barriers; growth is amortized warm-up only
		at: at, seq: ss.outSeq[from], from: int32(from), to: int32(to), h: h, p: p,
	})
	return true
}

// drainOutboxes merges every parked cross-shard event into its destination
// kernel in (time, seq, source shard) order, a total order over posts that
// depends only on simulation structure.
//
//decentlint:hotpath
func (ss *ShardedSim) drainOutboxes() {
	ss.merged = ss.merged[:0]
	for i := range ss.outbox {
		ss.merged = append(ss.merged, ss.outbox[i]...) //decentlint:allow hotpath merge scratch is reused across barriers; growth is amortized warm-up only
		ss.outbox[i] = ss.outbox[i][:0]
	}
	if len(ss.merged) > 1 {
		sort.Sort(&ss.merged)
	}
	for i := range ss.merged {
		ev := &ss.merged[i]
		ss.shards[ev.to].AtFunc(ev.at, ev.h, ev.p)
		// Drop payload references so the reused scratch does not pin
		// closures or contexts past the barrier.
		ev.h, ev.p = nil, Payload{}
	}
}

// nextTime returns the earliest pending event time across all shards.
// Outboxes are empty when it is called (barriers drain first), so shard
// heads are the complete frontier.
func (ss *ShardedSim) nextTime() (time.Duration, bool) {
	best, any := maxDuration, false
	for _, sh := range ss.shards {
		if t, ok := sh.PeekTime(); ok && (!any || t < best) {
			best, any = t, true
		}
	}
	return best, any
}

// checkViolations surfaces the first window-rule breach recorded during the
// last window, identifying the source shard and the offending fire time.
func (ss *ShardedSim) checkViolations() error {
	for i := range ss.violate {
		if v := ss.violate[i]; v.bad {
			return fmt.Errorf(
				"sim: conservative window violated: shard %d posted a cross-shard event due at %v inside its own window ending at %v (window %v exceeds the model's cross-shard delay floor)",
				i, v.at, v.end, ss.window)
		}
	}
	return nil
}

// runShard executes shard idx's share of the current window. A panicking
// handler is recovered into an error naming the shard, so a failure reads
// the same whichever shard raised it. The shard that panicked is left
// mid-event; the driver is not usable afterwards.
func (ss *ShardedSim) runShard(idx int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: shard %d panicked at %v: %v", idx, ss.shards[idx].now, r)
		}
	}()
	return ss.shards[idx].runBefore(ss.curEnd)
}

// runWindow executes one window on every shard that has work before end, in
// index order. Every such shard runs even after another failed; it returns
// the lowest-indexed shard's panic error if any shard panicked, else
// ErrStopped if any shard's kernel was stopped.
func (ss *ShardedSim) runWindow(end time.Duration) error {
	ss.curEnd = end
	var err error
	for i, sh := range ss.shards {
		if t, ok := sh.PeekTime(); !ok || t >= end {
			continue
		}
		if e := ss.runShard(i); e != nil && (err == nil || errors.Is(err, ErrStopped)) {
			err = e
		}
	}
	ss.curEnd = 0
	return err
}

// Run executes windows until every shard schedule and mailbox is empty, or
// Stop is called. It returns nil on natural exhaustion and ErrStopped
// otherwise.
func (ss *ShardedSim) Run() error {
	return ss.RunUntil(maxDuration)
}

// RunFor executes windows for d of virtual time from Now, then returns with
// every shard clock at the horizon, so chunked driving composes exactly like
// Sim.RunFor.
func (ss *ShardedSim) RunFor(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	return ss.RunUntil(ss.Now() + d)
}

// RunUntil executes windows while events at or before horizon remain, then
// sets every shard clock to horizon. Windows start at the global earliest
// pending event (skipping idle stretches in one jump) and end one
// conservative window later, clipped to the horizon. Cross-shard mailboxes
// drain at every barrier. It returns ErrStopped when Stop cut the run short
// and a window-rule error when a shard posted inside its own window; both
// leave the driver at a consistent barrier. A handler that panics ends the
// run with an error naming its shard (see runShard).
func (ss *ShardedSim) RunUntil(horizon time.Duration) error {
	if ss.stopped {
		ss.stopped = false
		return ErrStopped
	}
	// Merge setup-time cross-shard posts before the first window.
	ss.drainOutboxes()

	for {
		t0, ok := ss.nextTime()
		if !ok || t0 > horizon {
			break
		}
		end := t0 + ss.window
		if end < t0 {
			end = maxDuration // overflow clamp near the time axis end
		}
		// RunUntil is horizon-inclusive while windows are end-exclusive:
		// the final window's bound is horizon+1 so events at exactly the
		// horizon still fire.
		if horizon != maxDuration && end > horizon+1 {
			end = horizon + 1
		}
		err := ss.runWindow(end)
		if verr := ss.checkViolations(); verr != nil {
			return verr
		}
		if err != nil {
			return err
		}
		ss.drainOutboxes()
		if ss.stopped {
			ss.stopped = false
			return ErrStopped
		}
	}
	if horizon != maxDuration {
		for _, sh := range ss.shards {
			if horizon > sh.now {
				sh.now = horizon
			}
		}
	}
	return nil
}
