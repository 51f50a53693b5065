package sim

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStaleHandleIsInert is the safety contract of the pooled closure path:
// a handle kept past its event's life must never affect the slot's next
// tenant.
func TestStaleHandleIsInert(t *testing.T) {
	s := New()
	fired := 0
	h1 := s.After(time.Second, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// h1's slot is now on the free list; the next schedule reuses it.
	h2 := s.After(time.Second, func() { fired++ })
	h1.Cancel() // stale: must not cancel h2
	if h1.Scheduled() {
		t.Fatal("fired handle reports Scheduled")
	}
	if !h2.Scheduled() {
		t.Fatal("stale Cancel killed the slot's new tenant")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestHandleInertInsideOwnCallback: by the time a closure runs, its slot is
// recycled, so self-cancel inside the callback is a no-op.
func TestHandleInertInsideOwnCallback(t *testing.T) {
	s := New()
	var h Handle
	ran := false
	h = s.After(time.Second, func() {
		ran = true
		if h.Scheduled() {
			t.Error("handle still Scheduled inside its own callback")
		}
		h.Cancel() // must not disturb anything
	})
	s.After(2*time.Second, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran || s.Fired() != 2 {
		t.Fatalf("ran=%v fired=%d, want true/2", ran, s.Fired())
	}
}

// TestClosureSteadyStateZeroAllocs pins the satellite contract: the closure
// schedule/fire loop rides the same free list as the handler path, so with
// a hoisted closure it allocates nothing.
func TestClosureSteadyStateZeroAllocs(t *testing.T) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	round := func() {
		for i := 0; i < 32; i++ {
			s.After(time.Duration(i), fn)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("closure schedule/fire loop allocates %.1f per run, want 0", avg)
	}
	if b := bytesPerRun(200, round); b != 0 {
		t.Fatalf("closure schedule/fire loop allocates %d bytes per run, want 0", b)
	}
}

// TestScheduleCancelZeroAllocs pins the other satellite contract: Cancel
// recycles the slot, so a schedule/cancel loop reuses one event forever.
// Its second case cancels stale handles — one canceled already, one whose
// event has fired, and the zero Handle — which take Cancel's early return
// and allocate nothing either. Each run makes 32 calls of a case's step.
func TestScheduleCancelZeroAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	s.After(time.Hour, fn).Cancel() // warm the free list
	for _, tc := range []struct {
		name string
		step func()
	}{
		{"schedule then cancel", func() { s.After(time.Hour, fn).Cancel() }},
		{"stale cancels", func() {
			h := s.After(time.Hour, fn)
			h.Cancel()
			h.Cancel()
			fired := s.After(0, fn)
			if err := s.RunFor(0); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
			fired.Cancel()
			Handle{}.Cancel()
		}},
	} {
		loop := func() {
			for i := 0; i < 32; i++ {
				tc.step()
			}
		}
		if avg := testing.AllocsPerRun(200, loop); avg != 0 {
			t.Fatalf("%s: the loop allocates %.1f per run, want 0", tc.name, avg)
		}
		if b := bytesPerRun(200, loop); b != 0 {
			t.Fatalf("%s: the loop allocates %d bytes per run, want 0", tc.name, b)
		}
		if s.Pending() != 0 {
			t.Fatalf("%s: Pending = %d after the loop, want 0", tc.name, s.Pending())
		}
	}
}

func TestMaxPendingHighWater(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Second, fn)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.After(time.Second, fn)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.MaxPending() != 5 {
		t.Fatalf("MaxPending = %d, want 5", s.MaxPending())
	}
}

func TestWithObserverAttachesKernelStats(t *testing.T) {
	col := obs.NewCollector()
	s := New(WithSeed(3), WithObserver(col))
	if s.Observer() != col {
		t.Fatal("Observer() did not return the attached collector")
	}
	for i := 1; i <= 4; i++ {
		s.After(time.Duration(i)*time.Second, func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := col.Snapshot()
	if snap.Sim.Fired != 4 || snap.Sim.MaxPending != 4 {
		t.Fatalf("sim snapshot = %+v, want fired=4 maxPending=4", snap.Sim)
	}
	if snap.Sim.VirtualNano != int64(4*time.Second) {
		t.Fatalf("virtual time = %d, want 4s", snap.Sim.VirtualNano)
	}
	// No observer: nil collector everywhere.
	if New().Observer() != nil {
		t.Fatal("detached sim must report a nil observer")
	}
}
