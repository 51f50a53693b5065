package sim

import (
	"math"
	"math/bits"
	"runtime"
	"testing"
	"time"
)

// bytesPerRun is testing.AllocsPerRun's twin for bytes, as in
// internal/netmodel's tests: the heap bytes f allocates per call, from
// runtime.MemStats.TotalAlloc over runs calls at GOMAXPROCS(1) after one
// warm-up call, truncated like AllocsPerRun, so a slice regrown without
// bound reads at least one byte per run where the malloc count reads 0.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return (m.TotalAlloc - before) / uint64(runs)
}

// collectPayloads is a package-level handler so scheduling it never
// allocates a closure; it appends the payload's A field to the slice the
// Ctx points at.
func collectPayloads(p Payload) {
	dst := p.Ctx.(*[]int64)
	*dst = append(*dst, p.A)
}

func TestAfterFuncDelivers(t *testing.T) {
	s := New()
	var got []int64
	if !s.AfterFunc(time.Second, collectPayloads, Payload{Ctx: &got, A: 7}) {
		t.Fatal("AfterFunc refused a valid schedule")
	}
	if !s.AfterFunc(2*time.Second, collectPayloads, Payload{Ctx: &got, A: 9}) {
		t.Fatal("AfterFunc refused a valid schedule")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("payloads = %v, want [7 9]", got)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
}

func TestAfterFuncOrderInterleavesWithClosures(t *testing.T) {
	s := New()
	var order []int64
	s.After(time.Millisecond, func() { order = append(order, 1) })
	s.AfterFunc(time.Millisecond, collectPayloads, Payload{Ctx: &order, A: 2})
	s.After(time.Millisecond, func() { order = append(order, 3) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("same-instant order = %v, want [1 2 3]", order)
	}
}

func TestAfterFuncRejectsBadSchedules(t *testing.T) {
	s := New()
	if s.AfterFunc(time.Second, nil, Payload{}) {
		t.Fatal("nil handler accepted")
	}
	s.After(time.Second, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.AfterFunc(math.MaxInt64, collectPayloads, Payload{}) {
		t.Fatal("delay overflowing the clock accepted")
	}
	var got []int64
	if !s.AfterFunc(-time.Second, collectPayloads, Payload{Ctx: &got, A: 1}) {
		t.Fatal("negative delay should clamp to now, not fail")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("clamped event did not fire: %v", got)
	}
}

func TestHandlerEventsRecycled(t *testing.T) {
	s := New()
	var sink []int64
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			s.AfterFunc(time.Duration(i), collectPayloads, Payload{Ctx: &sink, A: int64(i)})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if len(sink) != 12 {
		t.Fatalf("fired %d events, want 12", len(sink))
	}
	// After draining, the free list must hold the recycled events: the next
	// batch reuses them rather than allocating.
	free := 0
	for ev := s.free; ev != nil; ev = ev.nextFree {
		free++
	}
	if free != 4 {
		t.Fatalf("free list holds %d events, want 4", free)
	}
}

// reschedule is a self-perpetuating handler: each firing schedules the next
// until the counter in Ctx reaches B.
func reschedule(p Payload) {
	n := p.Ctx.(*int64)
	*n++
	if *n < p.B {
		p.Aux.(*Sim).AfterFunc(time.Millisecond, reschedule, p)
	}
}

func TestAfterFuncSteadyStateZeroAllocs(t *testing.T) {
	s := New()
	var sink []int64
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.AfterFunc(time.Duration(i), collectPayloads, Payload{Ctx: &sink})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	round := func() {
		for i := 0; i < 32; i++ {
			s.AfterFunc(time.Duration(i), collectPayloads, Payload{Ctx: &sink})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		sink = sink[:0]
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("pooled schedule/fire loop allocates %.1f per run, want 0", avg)
	}
	if b := bytesPerRun(200, round); b != 0 {
		t.Fatalf("pooled schedule/fire loop allocates %d bytes per run, want 0", b)
	}
}

// TestDeepHeapSteadyStateZeroAllocs is the same contract at depth: with
// 4096 events pending, each fire and its replacement sift through a dozen
// levels of the heap, where the test above sifts one or two. Each run fires
// 16 events, one per Run.
func TestDeepHeapSteadyStateZeroAllocs(t *testing.T) {
	const depth = 4096
	s := New()
	p := Payload{Ctx: NewRNG(1), Aux: s, A: depth}
	for i := 0; i < depth; i++ {
		s.AfterFunc(time.Duration(i)*time.Microsecond, deepHeapStep, p)
	}
	step := func() {
		for i := 0; i < 16; i++ {
			if err := s.Run(); err != ErrStopped {
				t.Fatalf("Run = %v, want ErrStopped after one event", err)
			}
		}
	}
	const runs = 100
	step() // warm the free list
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("deep-heap schedule/fire allocates %.1f per run, want 0", avg)
	}
	if b := bytesPerRun(runs, step); b != 0 {
		t.Fatalf("deep-heap schedule/fire allocates %d bytes per run, want 0", b)
	}
	// The warm-up step, then AllocsPerRun's and bytesPerRun's own warm-up
	// calls and runs.
	if want := uint64(16 * (2*runs + 3)); s.Pending() != depth || s.Fired() != want {
		t.Fatalf("Pending() = %d, Fired() = %d; want %d pending, %d fired", s.Pending(), s.Fired(), depth, want)
	}
}

func TestRescheduleChainZeroAllocs(t *testing.T) {
	s := New()
	var n int64
	s.AfterFunc(time.Millisecond, reschedule, Payload{Ctx: &n, Aux: s, B: 4})
	if err := s.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	chain := func() {
		n = 0
		s.AfterFunc(time.Millisecond, reschedule, Payload{Ctx: &n, Aux: s, B: 16})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if avg := testing.AllocsPerRun(100, chain); avg != 0 {
		t.Fatalf("rescheduling handler chain allocates %.1f per run, want 0", avg)
	}
	if b := bytesPerRun(100, chain); b != 0 {
		t.Fatalf("rescheduling handler chain allocates %d bytes per run, want 0", b)
	}
	if n != 16 {
		t.Fatalf("chain fired %d times, want 16", n)
	}
}

// TestTickerSteadyStateAllocs pins the ticker to the same contract: once
// running, each tick reschedules the next without allocating — the Raft
// heartbeat and permissioned block-cutting timers tick for a whole run.
func TestTickerSteadyStateAllocs(t *testing.T) {
	s := New()
	ticks := 0
	if _, err := s.Every(time.Millisecond, func() { ticks++ }); err != nil {
		t.Fatalf("Every: %v", err)
	}
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	tick16 := func() {
		if err := s.RunFor(16 * time.Millisecond); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
	}
	if avg := testing.AllocsPerRun(100, tick16); avg != 0 {
		t.Fatalf("16 ticks allocate %.1f per run, want 0", avg)
	}
	if b := bytesPerRun(100, tick16); b != 0 {
		t.Fatalf("16 ticks allocate %d bytes per run, want 0", b)
	}
	if want := 10 + 16*202; ticks != want {
		t.Fatalf("ticked %d times, want %d", ticks, want)
	}
}

// TestFreshScheduleAllocs schedules and fires 100 000 events on a fresh
// Sim. Slots come from chunks of up to maxChunk and the heap array doubles,
// so the count is about N/maxChunk chunks plus log₂ N heap arrays (115 in
// all) — not one object per event, and not the ~40 arrays append's
// quarter-step growth would take.
func TestFreshScheduleAllocs(t *testing.T) {
	const n = 100_000
	var sink []int64
	avg := testing.AllocsPerRun(1, func() {
		s := New()
		for i := 0; i < n; i++ {
			s.AfterFunc(time.Duration(i%977)*time.Microsecond, countPayloads, Payload{Ctx: &sink})
		}
		if s.Pending() != n {
			t.Fatalf("Pending() = %d, want %d", s.Pending(), n)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if want := float64(n/maxChunk + bits.Len(n) + 8); avg > want {
		t.Fatalf("scheduling %d events on a fresh Sim allocates %.0f objects, want at most %.0f", n, avg, want)
	}
	if len(sink) != 1 || sink[0] != 2*n {
		t.Fatalf("fired %v events over two runs, want [%d]", sink, 2*n)
	}
}

// countPayloads counts fired events in the first element of the slice Ctx
// points at, growing it only once.
func countPayloads(p Payload) {
	dst := p.Ctx.(*[]int64)
	if len(*dst) == 0 {
		*dst = append(*dst, 0)
	}
	(*dst)[0]++
}

func BenchmarkKernelAfterFuncPooled(b *testing.B) {
	s := New()
	var sink []int64
	for i := 0; i < 64; i++ {
		s.AfterFunc(time.Duration(i), collectPayloads, Payload{Ctx: &sink})
	}
	if err := s.Run(); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(time.Microsecond, collectPayloads, Payload{Ctx: &sink})
		if err := s.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
		sink = sink[:0]
	}
}

func BenchmarkKernelClosureAfter(b *testing.B) {
	s := New()
	var fired int
	// The closure is hoisted so the benchmark measures the kernel's
	// schedule/fire cycle, not Go's closure capture: the event slot itself
	// comes from the free list and the loop allocates nothing.
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		if err := s.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

func BenchmarkKernelScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.After(time.Hour, fn)
		ev.Cancel()
	}
}

// deepHeapStep reschedules itself a random distance ahead and stops the
// run, so each Run call is exactly one fire and one schedule.
func deepHeapStep(p Payload) {
	s := p.Aux.(*Sim)
	s.AfterFunc(time.Duration(p.Ctx.(*RNG).Intn(int(p.A)))*time.Microsecond, deepHeapStep, p)
	s.Stop()
}

// BenchmarkKernelDeepHeap is the schedule/fire cycle at the depth the
// experiments reach (E02 peaks at 1.6 x 10^5 pending events): the three
// benchmarks above run on a near-empty heap, where a sift is one step. Each
// iteration fires the earliest of 10^5 pending events and schedules its
// replacement a random distance ahead, so both sifts cross the whole tree.
func BenchmarkKernelDeepHeap(b *testing.B) {
	const depth = 100_000
	s := New()
	p := Payload{Ctx: NewRNG(1), Aux: s, A: depth}
	for i := 0; i < depth; i++ {
		s.AfterFunc(time.Duration(i)*time.Microsecond, deepHeapStep, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(); err != ErrStopped {
			b.Fatalf("Run = %v, want ErrStopped after one event", err)
		}
	}
	b.StopTimer()
	if s.Pending() != depth || s.Fired() != uint64(b.N) {
		b.Fatalf("Pending() = %d, Fired() = %d; want %d pending, %d fired", s.Pending(), s.Fired(), depth, b.N)
	}
}
