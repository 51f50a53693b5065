package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var at time.Duration
	s.After(5*time.Second, func() {
		at = s.Now()
		s.After(2*time.Second, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 7*time.Second {
		t.Fatalf("Now at final event = %v, want 7s", at)
	}
}

func TestSchedulePastReturnsZeroHandle(t *testing.T) {
	s := New()
	s.After(time.Second, func() {
		ev := s.At(0, func() {})
		if !ev.IsZero() || ev.Scheduled() {
			t.Error("scheduling in the past should return the zero handle")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	ev := s.After(time.Second, func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("Scheduled() = false before Cancel")
	}
	ev.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	if ev.Scheduled() {
		t.Fatal("Scheduled() = true after Cancel")
	}
	if ev.IsZero() {
		t.Fatal("a canceled handle is spent, not zero")
	}
}

// TestCancelEager verifies cancellation removes the event from the schedule
// immediately: Pending drops at Cancel time, not at the event's fire time.
func TestCancelEager(t *testing.T) {
	s := New()
	s.At(time.Second, func() {})
	ev := s.At(time.Hour, func() { t.Error("canceled event fired") })
	s.At(2*time.Second, func() {})
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d before cancel, want 3", s.Pending())
	}
	ev.Cancel()
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d after cancel, want 2 (eager removal)", s.Pending())
	}
	ev.Cancel() // second cancel is a no-op
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d after double cancel, want 2", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
}

// TestCancelPreservesOrder cancels interleaved events and checks the
// survivors still fire in (time, sequence) order.
func TestCancelPreservesOrder(t *testing.T) {
	s := New()
	var got []int
	var evs []Handle
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, s.At(time.Duration(i)*time.Second, func() { got = append(got, i) }))
	}
	for i := 1; i < 10; i += 2 {
		evs[i].Cancel()
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestCancelAfterFire verifies canceling an already-fired event is a no-op
// and does not disturb the remaining schedule.
func TestCancelAfterFire(t *testing.T) {
	s := New()
	fired := 0
	ev := s.At(time.Second, func() { fired++ })
	s.At(2*time.Second, func() { fired++ })
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	ev.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestTickerStopUnschedules verifies a stopped ticker's pending tick leaves
// the heap immediately instead of lingering to its fire time.
func TestTickerStopUnschedules(t *testing.T) {
	s := New()
	tk, err := s.Every(time.Hour, func() {})
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after Every, want 1", s.Pending())
	}
	tk.Stop()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Ticker.Stop, want 0 (eager removal)", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", s.Fired())
	}
}

// TestStopBeforeRun verifies a Stop issued while no Run is in flight is not
// erased: the next Run variant returns ErrStopped immediately, and the stop
// is consumed so the run after that proceeds.
func TestStopBeforeRun(t *testing.T) {
	s := New()
	count := 0
	s.At(time.Second, func() { count++ })
	s.Stop()
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run after idle Stop = %v, want ErrStopped", err)
	}
	if count != 0 {
		t.Fatalf("executed %d events despite pre-run Stop, want 0", count)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run after consumed Stop: %v", err)
	}
	if count != 1 {
		t.Fatalf("executed %d events, want 1", count)
	}
}

// TestStopConsumedByRunVariants checks each Run variant honors and consumes
// a pre-run Stop.
func TestStopConsumedByRunVariants(t *testing.T) {
	s := New()
	s.Stop()
	if err := s.RunUntil(time.Minute); err != ErrStopped {
		t.Fatalf("RunUntil after idle Stop = %v, want ErrStopped", err)
	}
	s.Stop()
	if err := s.RunFor(time.Minute); err != ErrStopped {
		t.Fatalf("RunFor after idle Stop = %v, want ErrStopped", err)
	}
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatalf("RunFor after consumed Stop: %v", err)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		s.At(d, func() { fired = append(fired, d) })
	}
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v after RunUntil(3s), want 3s", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

func TestRunForAdvancesEvenWhenEmpty(t *testing.T) {
	s := New()
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if s.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.At(time.Second, func() { count++; s.Stop() })
	s.At(2*time.Second, func() { count++ })
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Fatalf("executed %d events after Stop, want 1", count)
	}
}

func TestTicker(t *testing.T) {
	s := New()
	ticks := 0
	tk, err := s.Every(time.Second, func() { ticks++ })
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if err := s.RunUntil(5500 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	tk.Stop()
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ticks != 5 {
		t.Fatalf("ticker fired after Stop: ticks = %d", ticks)
	}
}

func TestTickerBadPeriod(t *testing.T) {
	s := New()
	if _, err := s.Every(0, func() {}); err == nil {
		t.Fatal("Every(0) should error")
	}
	if _, err := s.Every(time.Second, nil); err == nil {
		t.Fatal("Every(nil fn) should error")
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := New(WithSeed(42)).Stream("net")
	b := New(WithSeed(42)).Stream("net")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds and stream names must produce equal streams")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := New(WithSeed(42))
	a, b := s.Stream("a"), s.Stream("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'a' and 'b' coincide %d/64 times; expected independence", same)
	}
	if s.Stream("a") != a {
		t.Fatal("Stream must return the same object for the same name")
	}
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 10; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGIntnNonPositive(t *testing.T) {
	g := NewRNG(1)
	if g.Intn(0) != 0 || g.Intn(-5) != 0 {
		t.Fatal("Intn with non-positive bound should return 0")
	}
}

func TestExpDurationMean(t *testing.T) {
	g := NewRNG(7)
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += g.ExpDuration(time.Second)
	}
	mean := float64(sum) / n
	if mean < 0.9*float64(time.Second) || mean > 1.1*float64(time.Second) {
		t.Fatalf("empirical mean %v, want ~1s", time.Duration(mean))
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(3)
	base := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := g.Jitter(base, 0.2)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered %v outside [80ms,120ms]", d)
		}
	}
	if g.Jitter(base, 0) != base {
		t.Fatal("zero jitter must be identity")
	}
}

// Property: for any schedule of non-negative delays, events fire in
// non-decreasing time order and the count matches.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var times []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			s.At(at, func() { times = append(times, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeepHeapOrder is TestPropertyEventOrder at the depth the
// experiments run at, with cancellation: 120 000 events of both flavours
// land on a few thousand shared instants, a random third are canceled while
// tens of thousands are pending — the root and the last slot every batch, and
// some two thousand interior slots whose refill has to sift up — and the fire
// sequence must equal the shadow list sorted by (at, seq).
func TestPropertyDeepHeapOrder(t *testing.T) {
	const (
		batches   = 12
		perBatch  = 10_000
		spanMs    = 5000 // instants a batch spreads over: many events per instant
		advanceMs = 200  // virtual time fired between batches
	)
	type shadow struct {
		at       time.Duration
		h        Handle // real for closure events, forged from the slot for handler ones
		closure  bool
		live     bool
		canceled bool
	}
	var (
		s                   = New()
		g                   = NewRNG(42)
		evs                 []shadow // index = schedule serial = the kernel's seq
		got, want           []int64
		live                int
		roots, lasts, upped int
	)
	cancel := func(id int) {
		h := evs[id].h
		switch i, n := h.ev.index, len(s.queue)-1; {
		case i == 0:
			roots++
		case i == n:
			lasts++
		case s.queue[n].before(s.queue[(i-1)/arity]):
			upped++
		}
		h.Cancel()
		evs[id].live, evs[id].canceled = false, true
		live--
	}
	// cancelSlot cancels whatever occupies heap slot i, handler events
	// included: the handle At would have returned is rebuilt from the slot.
	cancelSlot := func(i int) {
		e := s.queue[i]
		evs[e.seq].h = Handle{ev: e.ev, gen: e.ev.gen}
		cancel(int(e.seq))
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			id := int64(len(evs))
			at := s.Now() + time.Duration(g.Intn(spanMs))*time.Millisecond
			ev := shadow{at: at, live: true, closure: g.Intn(3) > 0}
			if ev.closure {
				ev.h = s.At(at, func() { got = append(got, id) })
			} else {
				s.AtFunc(at, collectPayloads, Payload{Ctx: &got, A: id})
			}
			evs = append(evs, ev)
			live++
		}
		// Handles canceled in earlier batches now point at slots this
		// batch reused; canceling them again must not touch the new tenant.
		for id := range evs {
			if evs[id].canceled {
				evs[id].h.Cancel()
			}
		}
		for done := 0; done < perBatch/3; {
			if id := g.Intn(len(evs)); evs[id].closure && evs[id].live {
				cancel(id)
				done++
			}
		}
		cancelSlot(0)
		cancelSlot(len(s.queue) - 1)
		if s.Pending() != live {
			t.Fatalf("batch %d: Pending() = %d after cancels, model has %d live", b, s.Pending(), live)
		}

		// Every batch fires advanceMs of virtual time; the last one drains.
		final, horizon := b == batches-1, s.Now()+advanceMs*time.Millisecond
		var due []int
		for id := range evs {
			if evs[id].live && (final || evs[id].at <= horizon) {
				due = append(due, id)
			}
		}
		sort.Slice(due, func(i, j int) bool {
			a, b := due[i], due[j]
			return evs[a].at < evs[b].at || (evs[a].at == evs[b].at && a < b)
		})
		for _, id := range due {
			evs[id].live = false
			want = append(want, int64(id))
		}
		live -= len(due)
		var err error
		if final {
			err = s.Run()
		} else {
			err = s.RunFor(advanceMs * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("batch %d: run: %v", b, err)
		}
		if s.Pending() != live || len(got) != len(want) {
			t.Fatalf("batch %d: Pending() = %d, fired %d; model has %d live, %d fired",
				b, s.Pending(), len(got), live, len(want))
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d is event %d at %v, want event %d at %v",
				i, got[i], evs[got[i]].at, want[i], evs[want[i]].at)
		}
	}

	perInstant := make(map[time.Duration]int)
	for _, ev := range evs {
		perInstant[ev.at]++
	}
	shared, canceled := 0, 0
	for _, ev := range evs {
		if perInstant[ev.at] > 1 {
			shared++
		}
		if ev.canceled {
			canceled++
			if ev.h.Scheduled() || ev.h.At() != 0 {
				t.Fatalf("canceled handle still reports scheduled at %v", ev.h.At())
			}
		}
	}
	if len(evs) < 100_000 || shared < len(evs)/2 || canceled < len(evs)/3 {
		t.Fatalf("workload too easy: %d events, %d on a shared instant, %d canceled", len(evs), shared, canceled)
	}
	t.Logf("cancels: %d root, %d last-slot, %d sift-up, of %d", roots, lasts, upped, canceled)
	if roots < batches || lasts < batches || upped < batches {
		t.Fatalf("cancel shapes not all exercised: %d root, %d last-slot, %d sift-up", roots, lasts, upped)
	}
	if s.MaxPending() < 50_000 {
		t.Fatalf("heap never got deep: max pending %d", s.MaxPending())
	}
}

func TestFiredCount(t *testing.T) {
	s := New()
	for i := 0; i < 25; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Fired() != 25 {
		t.Fatalf("Fired = %d, want 25", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}
