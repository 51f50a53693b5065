package netmodel

import (
	"fmt"
	"testing"
	"time"
)

// checkCallCases drives Call through every way an exchange can end, each on
// a fresh two-node net (both in Europe, no jitter: the request lands at
// 15 ms, the reply at 30 ms). A case's fault is injected between two chunks
// of the run. Each case pins both of done's arguments, ok/inFlight, and the
// instant done fired.
func checkCallCases(t *testing.T) {
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
		{name: "answered inside the deadline", timeout: deadline, want: "true/false@30ms", served: 1},
		{name: "answered after the deadline", timeout: 20 * time.Millisecond, want: "false/false@20ms", served: 1},
		{name: "answered at the deadline", timeout: 30 * time.Millisecond, want: "false/false@30ms", served: 1},
		{name: "request in flight at the deadline", timeout: 10 * time.Millisecond, want: "false/true@10ms", served: 1},
		{name: "request delivered at the deadline", timeout: 15 * time.Millisecond, want: "false/true@15ms", served: 1},
		{name: "request lost", timeout: deadline, lossy: true, want: "false/false@100ms"},
		{name: "response lost", timeout: deadline, at: 5 * time.Millisecond,
			inject: func(n *Net, a, b NodeID) { n.SetLoss(1) }, want: "false/false@100ms", served: 1},
		{name: "receiver down at request delivery", timeout: deadline, at: 5 * time.Millisecond,
			inject: func(n *Net, a, b NodeID) { n.SetUp(b, false) }, want: "false/true@100ms"},
		{name: "requester down with the response in flight", timeout: deadline, at: 20 * time.Millisecond,
			inject: func(n *Net, a, b NodeID) { n.SetUp(a, false) }, want: "false/false@100ms", served: 1},
		{name: "serve declines", timeout: deadline, declines: true, want: "false/false@100ms", served: 1},
	} {
		s, n := newNet(t, WithJitter(0))
		a, b := n.AddNode(Europe, 0), n.AddNode(Europe, 0)
		if tc.lossy {
			n.SetLoss(1)
		}
		var log []string
		served := 0
		n.Call(a, b, 40, 120, tc.timeout,
			func() bool { served++; return !tc.declines },
			func(ok, inFlight bool) { log = append(log, fmt.Sprintf("%t/%t@%v", ok, inFlight, s.Now())) })
		if tc.inject != nil {
			if err := s.RunUntil(tc.at); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			tc.inject(n, a, b)
		}
		if err := s.RunUntil(time.Second); err != nil {
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
func checkCallReuse(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a, far, near := n.AddNode(Europe, 0), n.AddNode(Asia, 0), n.AddNode(Europe, 0)
	var log []string
	exchange := func(name string, to NodeID, timeout time.Duration, then func()) {
		n.Call(a, to, 40, 120, timeout,
			func() bool {
				log = append(log, fmt.Sprintf("%s served@%v", name, s.Now()))
				return true
			},
			func(ok, inFlight bool) {
				log = append(log, fmt.Sprintf("%s %t/%t@%v", name, ok, inFlight, s.Now()))
				if then != nil {
					then()
				}
			})
	}
	exchange("first", far, 20*time.Millisecond, func() {
		exchange("second", near, 100*time.Millisecond, nil)
	})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := "[first false/true@20ms second served@35ms second true/false@50ms first served@80ms]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("exchanges reported %s, want %s", got, want)
	}
}

func TestCall(t *testing.T) {
	checkCallCases(t)
	checkCallReuse(t)
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
		func(ok, _ bool) { order = append(order, fmt.Sprintf("done(%t)", ok)) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := fmt.Sprint(order); got != "[done(false) serve]" {
		t.Fatalf("events at the tie ran as %s, want [done(false) serve]", got)
	}
}

// TestCallLateRequestServedOnce sends a request that arrives after its
// deadline (Asia, 80 ms one way, under a 20 ms deadline) and issues a second
// exchange from the first's done(false), while the first request is still
// in flight. The late request must run the first exchange's serve exactly
// once: had the first exchange gone back to the pool at its deadline, the
// second would have taken it, and the late delivery would run the second's
// serve a second time instead. The late serve declines, so its delivery
// returns the first exchange to the pool, and a third exchange that takes
// it runs only its own serve.
func TestCallLateRequestServedOnce(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a, far, near := n.AddNode(Europe, 0), n.AddNode(Asia, 0), n.AddNode(Europe, 0)
	served := map[string][]time.Duration{}
	var log []string
	exchange := func(name string, to NodeID, timeout time.Duration, answer bool, then func()) {
		n.Call(a, to, 40, 120, timeout,
			func() bool {
				served[name] = append(served[name], s.Now())
				return answer
			},
			func(ok, inFlight bool) {
				log = append(log, fmt.Sprintf("%s %t/%t@%v", name, ok, inFlight, s.Now()))
				if then != nil {
					then()
				}
			})
	}
	exchange("first", far, 20*time.Millisecond, false, func() {
		exchange("second", near, 100*time.Millisecond, true, nil)
	})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := fmt.Sprint(served), "map[first:[80ms] second:[35ms]]"; got != want {
		t.Fatalf("serves ran as %s, want %s", got, want)
	}
	if len(n.calls) != 2 {
		t.Fatalf("%d exchanges pooled after both ended, want 2", len(n.calls))
	}
	exchange("third", near, 100*time.Millisecond, true, nil)
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(served["first"]) != 1 || len(served["second"]) != 1 || len(served["third"]) != 1 {
		t.Fatalf("serves after a third exchange: %v, want one each", served)
	}
	want := "[first false/true@20ms second true/false@50ms third true/false@1.03s]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("exchanges reported %s, want %s", got, want)
	}
}
