package sim

import (
	"testing"
	"time"
)

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
	if !s.AtFunc(2*time.Second, collectPayloads, Payload{Ctx: &got, A: 9}) {
		t.Fatal("AtFunc refused a valid schedule")
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
	if s.AtFunc(0, collectPayloads, Payload{}) {
		t.Fatal("past schedule accepted")
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
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s.AfterFunc(time.Duration(i), collectPayloads, Payload{Ctx: &sink})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		sink = sink[:0]
	})
	if avg != 0 {
		t.Fatalf("pooled schedule/fire loop allocates %.1f per run, want 0", avg)
	}
}

func TestRescheduleChainZeroAllocs(t *testing.T) {
	s := New()
	var n int64
	s.AfterFunc(time.Millisecond, reschedule, Payload{Ctx: &n, Aux: s, B: 4})
	if err := s.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(100, func() {
		n = 0
		s.AfterFunc(time.Millisecond, reschedule, Payload{Ctx: &n, Aux: s, B: 16})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("rescheduling handler chain allocates %.1f per run, want 0", avg)
	}
	if n != 16 {
		t.Fatalf("chain fired %d times, want 16", n)
	}
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
