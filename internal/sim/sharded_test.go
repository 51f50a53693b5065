package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fireRec is one observed event execution.
type fireRec struct {
	shard int
	at    time.Duration
	id    int64
}

// chaosCtx drives a self-expanding workload over a ShardedSim: every fired
// event appends to its shard's log and may reschedule locally, post across
// shards (always at least one window out), or schedule-and-maybe-cancel a
// closure event. All decisions draw from per-shard streams in per-shard
// event order, so the whole trajectory is a pure function of (seed, shards,
// window, budget).
type chaosCtx struct {
	ss        *ShardedSim
	window    time.Duration
	logs      [][]fireRec
	rngs      []*RNG
	remaining []int // per-shard respawn budget, bounds the run
}

func newChaos(t testing.TB, shards int, seed int64, window time.Duration, budget int) *chaosCtx {
	t.Helper()
	ss, err := NewSharded(shards, window, WithSeed(seed))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	c := &chaosCtx{
		ss:        ss,
		window:    window,
		logs:      make([][]fireRec, shards),
		rngs:      make([]*RNG, shards),
		remaining: make([]int, shards),
	}
	for i := 0; i < shards; i++ {
		c.rngs[i] = ss.Shard(i).Stream("chaos")
		c.remaining[i] = budget
		// Root events: a small spread per shard inside the first window.
		for j := 0; j < 3; j++ {
			at := time.Duration(j) * window / 3
			ss.Shard(i).AtFunc(at, chaosFire, Payload{Ctx: c, A: int64(i), B: int64(i*1000 + j)})
		}
	}
	return c
}

func chaosFire(p Payload) {
	c := p.Ctx.(*chaosCtx)
	shard := int(p.A)
	sh := c.ss.Shard(shard)
	c.logs[shard] = append(c.logs[shard], fireRec{shard: shard, at: sh.Now(), id: p.B})
	if c.remaining[shard] <= 0 {
		return
	}
	c.remaining[shard]--
	g := c.rngs[shard]
	switch g.Intn(4) {
	case 0: // local handler reschedule
		d := time.Duration(g.Intn(int(3 * c.window)))
		sh.AfterFunc(d, chaosFire, Payload{Ctx: c, A: p.A, B: p.B*31 + 1})
	case 1: // cross-shard post, one window (plus slack) out
		to := g.Intn(len(c.logs))
		at := sh.Now() + c.window + time.Duration(g.Intn(int(c.window)))
		c.ss.Post(shard, to, at, chaosFire, Payload{Ctx: c, A: int64(to), B: p.B*31 + 2})
	case 2: // closure event, sometimes canceled immediately
		id := p.B*31 + 3
		h := sh.After(c.window/2, func() {
			c.logs[shard] = append(c.logs[shard], fireRec{shard: shard, at: sh.Now(), id: id})
		})
		if g.Bool(0.5) {
			h.Cancel()
		}
	case 3: // same-instant burst: two events racing on (at, seq) order
		at := sh.Now() + c.window/4
		sh.AtFunc(at, chaosFire, Payload{Ctx: c, A: p.A, B: p.B*31 + 4})
		sh.AtFunc(at, chaosFire, Payload{Ctx: c, A: p.A, B: p.B*31 + 5})
	}
}

func runChaos(t testing.TB, shards int, seed int64, budget int) [][]fireRec {
	t.Helper()
	window := 10 * time.Millisecond
	c := newChaos(t, shards, seed, window, budget)
	if err := c.ss.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return c.logs
}

func diffLogs(a, b [][]fireRec) string {
	if len(a) != len(b) {
		return fmt.Sprintf("shard count %d vs %d", len(a), len(b))
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			return fmt.Sprintf("shard %d fired %d vs %d events", s, len(a[s]), len(b[s]))
		}
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				return fmt.Sprintf("shard %d event %d: %+v vs %+v", s, i, a[s][i], b[s][i])
			}
		}
	}
	return ""
}

// TestShardedSeedSensitivity guards against the chaos harness being a
// constant: different seeds must produce different trajectories.
func TestShardedSeedSensitivity(t *testing.T) {
	a := runChaos(t, 4, 1, 150)
	b := runChaos(t, 4, 2, 150)
	if diffLogs(a, b) == "" {
		t.Fatal("seeds 1 and 2 produced identical trajectories; harness draws no randomness")
	}
}

// TestShardedSingleShardMatchesPlainSim pins the degenerate case: one shard
// with purely local scheduling is bit-identical to a plain Sim run with the
// shard's derived seed.
func TestShardedSingleShardMatchesPlainSim(t *testing.T) {
	type rec struct {
		at time.Duration
		id int64
	}
	build := func(schedule func(at time.Duration, id int64), g *RNG) {
		for i := 0; i < 500; i++ {
			schedule(time.Duration(g.Intn(int(time.Second))), int64(i))
		}
	}
	runPlain := func() []rec {
		s := New(WithSeed(deriveSeed(7, "shard:0")))
		var log []rec
		h := func(p Payload) { log = append(log, rec{s.Now(), p.B}) }
		build(func(at time.Duration, id int64) { s.AtFunc(at, h, Payload{B: id}) }, s.Stream("gen"))
		if err := s.Run(); err != nil {
			t.Fatalf("plain Run: %v", err)
		}
		return log
	}
	runSharded := func() []rec {
		ss, err := NewSharded(1, 10*time.Millisecond, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		sh := ss.Shard(0)
		var log []rec
		h := func(p Payload) { log = append(log, rec{sh.Now(), p.B}) }
		build(func(at time.Duration, id int64) { sh.AtFunc(at, h, Payload{B: id}) }, sh.Stream("gen"))
		if err := ss.Run(); err != nil {
			t.Fatalf("sharded Run: %v", err)
		}
		return log
	}
	plain, sharded := runPlain(), runSharded()
	if len(plain) != len(sharded) {
		t.Fatalf("fired %d vs %d events", len(plain), len(sharded))
	}
	for i := range plain {
		if plain[i] != sharded[i] {
			t.Fatalf("event %d: plain %+v vs sharded %+v", i, plain[i], sharded[i])
		}
	}
}

// TestShardedMailboxMergeOrder pins the barrier merge rule: cross-shard
// events landing on one destination at the same instant fire in (time, seq,
// source shard) order regardless of posting order across shards.
func TestShardedMailboxMergeOrder(t *testing.T) {
	ss, err := NewSharded(4, 10*time.Millisecond, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	h := func(p Payload) { got = append(got, p.B) }
	at := 50 * time.Millisecond
	// Post from shards in reverse order; seq is per-source, so every post
	// here has seq 1 and the shard index must break the tie: 1, 2, 3.
	for from := 3; from >= 1; from-- {
		ss.Post(from, 0, at, h, Payload{B: int64(from)})
	}
	// A second wave from shard 1 gets seq 2 and sorts after all seq-1
	// posts at the same instant.
	ss.Post(1, 0, at, h, Payload{B: 100})
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 100}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge order %v, want %v", got, want)
		}
	}
}

// TestShardedWindowViolation verifies the conservative rule is enforced: a
// cross-shard post due inside the posting shard's own window fails the run
// with a diagnostic naming the shard.
func TestShardedWindowViolation(t *testing.T) {
	ss, err := NewSharded(2, 10*time.Millisecond, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ss.Shard(0).AtFunc(0, func(p Payload) {
		ss.Post(0, 1, 1*time.Millisecond, func(Payload) {}, Payload{})
	}, Payload{})
	err = ss.Run()
	if err == nil {
		t.Fatal("window violation went undetected")
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("violation error does not name the offending shard: %v", err)
	}
}

// TestShardedStopAtBarrier verifies Stop semantics: the driver stops at a
// window barrier, the stop is consumed, and a pre-run Stop short-circuits.
func TestShardedStopAtBarrier(t *testing.T) {
	ss, err := NewSharded(2, 10*time.Millisecond, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	ss.Shard(0).AtFunc(0, func(Payload) { fired++; ss.Stop() }, Payload{})
	ss.Shard(1).AtFunc(time.Second, func(Payload) { fired++ }, Payload{})
	if err := ss.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run after Stop: %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Fatalf("fired %d events before stop, want 1", fired)
	}
	if err := ss.Run(); err != nil {
		t.Fatalf("stop not consumed: %v", err)
	}
	if fired != 2 {
		t.Fatalf("resumed run fired %d total, want 2", fired)
	}
	ss.Stop()
	if err := ss.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("pre-run Stop: %v, want ErrStopped", err)
	}
}

// TestShardedRunUntilChunks is the window-barrier metamorphic test at the
// driver level: driving the same workload in k RunFor chunks must equal one
// RunUntil over the whole horizon.
func TestShardedRunUntilChunks(t *testing.T) {
	const horizon = 400 * time.Millisecond
	run := func(chunks int) [][]fireRec {
		c := newChaos(t, 3, 9, 10*time.Millisecond, 120)
		if chunks <= 1 {
			if err := c.ss.RunUntil(horizon); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
		} else {
			per := horizon / time.Duration(chunks)
			for i := 0; i < chunks; i++ {
				if err := c.ss.RunFor(per); err != nil {
					t.Fatalf("RunFor chunk %d: %v", i, err)
				}
			}
			if rest := horizon - per*time.Duration(chunks); rest > 0 {
				if err := c.ss.RunFor(rest); err != nil {
					t.Fatalf("RunFor remainder: %v", err)
				}
			}
		}
		if got := c.ss.Now(); got != horizon {
			t.Fatalf("clock at %v after horizon %v", got, horizon)
		}
		return c.logs
	}
	base := run(1)
	for _, chunks := range []int{2, 3, 7} {
		if d := diffLogs(base, run(chunks)); d != "" {
			t.Fatalf("chunks=%d diverged: %s", chunks, d)
		}
	}
}

// TestShardedAccounting checks the aggregate accessors sum across shards
// and mailboxes.
func TestShardedAccounting(t *testing.T) {
	ss, err := NewSharded(3, 10*time.Millisecond, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if ss.ShardCount() != 3 {
		t.Fatalf("ShardCount %d, want 3", ss.ShardCount())
	}
	h := func(Payload) {}
	ss.Shard(0).AtFunc(time.Millisecond, func(p Payload) {}, Payload{})
	ss.Post(0, 2, 20*time.Millisecond, h, Payload{})
	if got := ss.Pending(); got != 2 {
		t.Fatalf("Pending %d, want 2 (one scheduled, one parked)", got)
	}
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ss.Fired(); got != 2 {
		t.Fatalf("Fired %d, want 2", got)
	}
	if got := ss.Pending(); got != 0 {
		t.Fatalf("Pending %d after run, want 0", got)
	}
	if got := ss.Now(); got != 20*time.Millisecond {
		t.Fatalf("Now %v, want 20ms", got)
	}
}

// TestNewShardedRejects pins constructor validation.
func TestNewShardedRejects(t *testing.T) {
	if _, err := NewSharded(0, time.Millisecond); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewSharded(2, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	ss, err := NewSharded(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Post(-1, 0, 0, func(Payload) {}, Payload{}) || ss.Post(0, 5, 0, func(Payload) {}, Payload{}) ||
		ss.Post(0, 1, -time.Second, func(Payload) {}, Payload{}) || ss.Post(0, 1, 0, nil, Payload{}) {
		t.Fatal("invalid Post accepted")
	}
}

// TestShardedPanicContained pins panic containment: a handler that panics
// on a shard ends the run with an error naming that shard, returned to the
// caller, after the window's other shards have run.
func TestShardedPanicContained(t *testing.T) {
	ss, err := NewSharded(3, 10*time.Millisecond, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	ss.Shard(0).AtFunc(time.Millisecond, func(Payload) { fired++ }, Payload{})
	ss.Shard(2).AtFunc(time.Millisecond, func(Payload) { panic("boom") }, Payload{})
	err = ss.RunUntil(time.Second)
	if err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("RunUntil returned %v, want a panic error", err)
	}
	if !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error %q does not name shard 2 and the panic value", err)
	}
	if fired != 1 {
		t.Fatalf("the healthy shard fired %d events in the window, want 1", fired)
	}
}
