package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOutReleasesHelpers pins the process-wide budget's bookkeeping:
// every helper a FanOut starts is released by the time it returns, also
// after a failed part and after a panicking one. A leaked reservation
// would leave every later FanOut in the process with one core fewer, and
// GOMAXPROCS-1 of them would serialize it for good.
func TestFanOutReleasesHelpers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		name string
		fail func(i int) error // part i's error; it may panic instead
	}{
		{"ok", func(int) error { return nil }},
		{"error", func(i int) error {
			if i == 2 {
				return errors.New("part 2")
			}
			return nil
		}},
		{"panic", func(i int) error {
			if i == 1 {
				panic("part 1")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sawHelper bool
			func() {
				defer func() { _ = recover() }()
				_, _ = FanOut(8, 0, func(i int) (int, error) {
					// Part 0 runs after its taker has started a helper.
					if i == 0 && helpers.Load() > 0 {
						sawHelper = true
					}
					return i, tc.fail(i)
				})
			}()
			if !sawHelper {
				t.Fatal("part 0 saw no helper: the test checks nothing")
			}
			if n := helpers.Load(); n != 0 {
				t.Fatalf("%d helpers still reserved after FanOut returned, want 0", n)
			}
		})
	}
}

// TestFanOutLimit pins limit: at most limit parts of one call run at once,
// however many cores are free.
func TestFanOutLimit(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var running, most atomic.Int64
	if _, err := FanOut(8, 2, func(i int) (int, error) {
		n := running.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if m := most.Load(); m > 2 {
		t.Fatalf("%d parts ran at once, want at most limit 2", m)
	}
}
