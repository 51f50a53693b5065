package netmodel

import (
	"fmt"
	"testing"
	"time"
)

// checkCallCases drives Call through every way an exchange can end, each on
// a fresh two-node net from mk (both in Europe, no jitter: the request lands
// at 15 ms, the reply at 30 ms). A case's fault is injected between two
// chunks of the run, while no worker is executing, so the same table holds
// on a plain kernel and on a sharded driver at any worker count.
func checkCallCases(t *testing.T, mk func(t *testing.T) (*Net, func(time.Duration) error)) {
	const deadline = 100 * time.Millisecond
	for _, tc := range []struct {
		name     string
		timeout  time.Duration
		lossy    bool // the request itself is lost
		declines bool // serve returns false
		at       time.Duration
		inject   func(n *Net, a, b NodeID)
		want     string
		served   int
	}{
		{name: "answered inside the deadline", timeout: deadline, want: "true@30ms", served: 1},
		{name: "answered after the deadline", timeout: 20 * time.Millisecond, want: "false@20ms", served: 1},
		{name: "answered at the deadline", timeout: 30 * time.Millisecond, want: "false@30ms", served: 1},
		{name: "request lost", timeout: deadline, lossy: true, want: "false@100ms"},
		{name: "response lost", timeout: deadline, at: 5 * time.Millisecond,
			inject: func(n *Net, a, b NodeID) { n.SetLoss(1) }, want: "false@100ms", served: 1},
		{name: "receiver down at request delivery", timeout: deadline, at: 5 * time.Millisecond,
			inject: func(n *Net, a, b NodeID) { n.SetUp(b, false) }, want: "false@100ms"},
		{name: "requester down with the response in flight", timeout: deadline, at: 20 * time.Millisecond,
			inject: func(n *Net, a, b NodeID) { n.SetUp(a, false) }, want: "false@100ms", served: 1},
		{name: "serve declines", timeout: deadline, declines: true, want: "false@100ms", served: 1},
	} {
		n, runUntil := mk(t)
		a, b := n.AddNode(Europe, 0), n.AddNode(Europe, 0)
		if tc.lossy {
			n.SetLoss(1)
		}
		var log []string
		served := 0
		n.Call(a, b, 40, 120, tc.timeout,
			func() bool { served++; return !tc.declines },
			func(ok bool) { log = append(log, fmt.Sprintf("%t@%v", ok, n.Kernel(a).Now())) })
		if tc.inject != nil {
			if err := runUntil(tc.at); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			tc.inject(n, a, b)
		}
		if err := runUntil(time.Second); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(log) != 1 || log[0] != tc.want || served != tc.served {
			t.Errorf("%s: done reported %v after %d serves, want [%s] after %d", tc.name, log, served, tc.want, tc.served)
		}
	}
}

// checkCallReuse issues a second exchange from the same requester between
// the first's done(false) and its late serve: the first goes to Asia (80 ms
// one way) under a 20 ms deadline, and its done issues the second, to a
// European peer. Each exchange must serve and report exactly once, as its
// own, although the first's request and reply are still in flight when the
// second starts.
func checkCallReuse(t *testing.T, mk func(t *testing.T) (*Net, func(time.Duration) error)) {
	n, runUntil := mk(t)
	a, far, near := n.AddNode(Europe, 0), n.AddNode(Asia, 0), n.AddNode(Europe, 0)
	var log []string
	exchange := func(name string, to NodeID, timeout time.Duration, then func()) {
		n.Call(a, to, 40, 120, timeout,
			func() bool {
				log = append(log, fmt.Sprintf("%s served@%v", name, n.Kernel(to).Now()))
				return true
			},
			func(ok bool) {
				log = append(log, fmt.Sprintf("%s %t@%v", name, ok, n.Kernel(a).Now()))
				if then != nil {
					then()
				}
			})
	}
	exchange("first", far, 20*time.Millisecond, func() {
		exchange("second", near, 100*time.Millisecond, nil)
	})
	if err := runUntil(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := "[first false@20ms second served@35ms second true@50ms first served@80ms]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("exchanges reported %s, want %s", got, want)
	}
}

func TestCall(t *testing.T) {
	mk := func(t *testing.T) (*Net, func(time.Duration) error) {
		s, n := newNet(t, WithJitter(0))
		return n, s.RunUntil
	}
	checkCallCases(t, mk)
	checkCallReuse(t, mk)
}

// TestShardCall holds the same table with requester and receiver on
// different shards: serve runs on the receiver's worker, the deadline and
// done on the requester's, at one worker and at four.
func TestShardCall(t *testing.T) {
	for _, workers := range []int{1, 4} {
		mk := func(t *testing.T) (*Net, func(time.Duration) error) {
			ss, n := shardedNet(t, 4, workers, WithJitter(0))
			return n, ss.RunUntil
		}
		checkCallCases(t, mk)
		checkCallReuse(t, mk)
	}
}

// TestCallDeadlineBooksFirst pins the one place Call's internal order shows:
// the deadline is booked before the request is sent, so at a tie (deadline
// equal to the one-way delay) it fires before the request is served — the
// (at, seq) every overlay's timeouts have always had.
func TestCallDeadlineBooksFirst(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a, b := n.AddNode(Europe, 0), n.AddNode(Europe, 0)
	var order []string
	n.Call(a, b, 40, 120, 15*time.Millisecond,
		func() bool { order = append(order, "serve"); return true },
		func(ok bool) { order = append(order, fmt.Sprintf("done(%t)", ok)) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := fmt.Sprint(order); got != "[done(false) serve]" {
		t.Fatalf("events at the tie ran as %s, want [done(false) serve]", got)
	}
}
