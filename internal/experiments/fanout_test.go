package experiments

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

// withProcs runs the test with at least n Ps, so that n parts of a fan-out
// are in flight at once and can wait on each other without deadlocking.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid names the calling goroutine ("goroutine 18 [running]:" -> "18").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func TestFanOutIndexOrder(t *testing.T) {
	withProcs(t, 3)
	// Part i waits for part i+1 to finish, so they finish 2, 1, 0.
	done := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	finished := make(chan int, len(done))
	got, err := fanOut(core.Config{}, len(done), func(i int) (int, error) {
		defer close(done[i])
		if i+1 < len(done) {
			<-done[i+1]
		}
		finished <- i
		return 10 * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(finished)
	var order []int
	for i := range finished {
		order = append(order, i)
	}
	if !slices.Equal(order, []int{2, 1, 0}) {
		t.Fatalf("completion order %v, want [2 1 0]", order)
	}
	if !slices.Equal(got, []int{0, 10, 20}) {
		t.Fatalf("results %v, want [0 10 20] in index order", got)
	}
}

func TestFanOutLowestErrorWins(t *testing.T) {
	withProcs(t, 4)
	// Part 3 fails first; part 1 fails only after it.
	threeDone := make(chan struct{})
	err1, err3 := errors.New("part 1"), errors.New("part 3")
	got, err := fanOut(core.Config{}, 4, func(i int) (int, error) {
		switch i {
		case 1:
			<-threeDone
			return 0, err1
		case 3:
			defer close(threeDone)
			return 0, err3
		}
		return i, nil
	})
	if err != err1 || got != nil {
		t.Fatalf("fanOut = %v, %v; want nil, %v", got, err, err1)
	}
}

func TestFanOutPanicBecomesJobError(t *testing.T) {
	withProcs(t, 2)
	// Both parts panic, on two goroutines (part 0 waits until part 1 has
	// started), so at least one panic starts off the caller's goroutine.
	stub := &exp{id: "EXP", title: "stub", claim: "§I: stub", run: func(cfg core.Config, r *core.Result) error {
		started := make(chan struct{})
		_, err := fanOut(cfg, 2, func(i int) (int, error) {
			if i == 0 {
				<-started
			} else {
				close(started)
			}
			panic("boom")
		})
		return err
	}}
	reg, err := core.NewRegistry(stub)
	if err != nil {
		t.Fatal(err)
	}
	runner := &harness.Runner{Registry: reg, Workers: 1}
	res := runner.Run(context.Background(), []harness.Job{{ExperimentID: "EXP", Config: core.Config{Seed: 1, Scale: 1}}})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "panicked: boom") {
		t.Fatalf("JobResult.Err = %v, want it to contain %q", res[0].Err, "panicked: boom")
	}
	if !strings.Contains(res[0].Err.Error(), "fanout_test.go") {
		t.Fatalf("JobResult.Err = %v, want the panicking part's stack", res[0].Err)
	}
}

func TestFanOutTelemetrySerial(t *testing.T) {
	withProcs(t, 4)
	cfg := core.Config{Obs: obs.NewCollector()}
	caller := goid()
	var order []int // unguarded: the race detector flags any concurrent append
	_, err := fanOut(cfg, 4, func(i int) (int, error) {
		if g := goid(); g != caller {
			t.Errorf("part %d ran on goroutine %s, want the caller's %s", i, g, caller)
		}
		order = append(order, i)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("err = %v, want stop", err)
	}
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("parts ran %v, want [0 1 2]: in index order, none after the failure", order)
	}
}
