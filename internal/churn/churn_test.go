package churn

import (
	"math"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Fixed returns a Dist that always yields d.
func Fixed(d time.Duration) Dist {
	return func(*sim.RNG) time.Duration { return d }
}

func TestValidation(t *testing.T) {
	s := sim.New()
	if _, err := New(s, 0, Config{Session: Fixed(time.Second), Gap: Fixed(time.Second)}, nil, nil); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := New(s, 5, Config{}, nil, nil); err == nil {
		t.Fatal("missing distributions should error")
	}
}

func TestDeterministicCycle(t *testing.T) {
	s := sim.New(sim.WithSeed(1))
	var events []string
	p, err := New(s, 1, Config{
		Session:       Fixed(10 * time.Second),
		Gap:           Fixed(5 * time.Second),
		InitialOnline: 1,
	},
		func(n int) { events = append(events, "join") },
		func(n int) { events = append(events, "leave") })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start()
	if err := s.RunUntil(31 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// t=0 join, t=10 leave, t=15 join, t=25 leave, t=30 join
	want := []string{"join", "leave", "join", "leave", "join"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	if !p.Online(0) {
		t.Fatal("node should be online at t=31s")
	}
}

func TestSteadyStateAvailability(t *testing.T) {
	s := sim.New(sim.WithSeed(99))
	session, gap := 10*time.Minute, 5*time.Minute
	const n = 2000
	p, err := New(s, n, Config{
		Session:       Exponential(session),
		Gap:           Exponential(gap),
		InitialOnline: ExpectedAvailability(session, gap),
	}, nil, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start()
	if err := s.RunUntil(2 * time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := float64(p.OnlineCount()) / n
	want := ExpectedAvailability(session, gap) // 2/3
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("steady-state availability = %v, want ~%v", got, want)
	}
}

func TestOnlineOutOfRange(t *testing.T) {
	s := sim.New()
	p, err := New(s, 3, Config{Session: Fixed(time.Second), Gap: Fixed(time.Second)}, nil, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p.Online(-1) || p.Online(3) {
		t.Fatal("out-of-range nodes must report offline")
	}
}

func TestExpectedAvailability(t *testing.T) {
	tests := []struct {
		session, gap time.Duration
		want         float64
	}{
		{time.Minute, time.Minute, 0.5},
		{2 * time.Minute, time.Minute, 2.0 / 3.0},
		{0, time.Minute, 0},
	}
	for _, tt := range tests {
		if got := ExpectedAvailability(tt.session, tt.gap); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("ExpectedAvailability(%v,%v) = %v, want %v", tt.session, tt.gap, got, tt.want)
		}
	}
}

func TestInitialOnlineClamped(t *testing.T) {
	s := sim.New(sim.WithSeed(3))
	p, err := New(s, 100, Config{
		Session:       Fixed(time.Hour),
		Gap:           Fixed(time.Hour),
		InitialOnline: 2.5, // clamped to 1
	}, nil, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start()
	if p.OnlineCount() != 100 {
		t.Fatalf("OnlineCount = %d, want 100 with clamped InitialOnline", p.OnlineCount())
	}
}

// TestCallbacksDoNotSteer pins the premise of E15's quiet tail: once its
// last measured lookup has reported, E15 stops rebuilding routing tables
// on join, which changes everything its callbacks do, and reads only
// OnlineCount at the horizon. That is byte-neutral only if the process's
// own schedule ignores what its callbacks do. So two processes on kernels
// with the same seed must agree on who is online at every checkpoint, one
// with no-op callbacks and one whose callbacks schedule unrelated events
// (some at the current instant), draw from other named streams, send
// messages and toggle transport nodes.
func TestCallbacksDoNotSteer(t *testing.T) {
	const n = 300
	session, gap := 8*time.Minute, 4*time.Minute
	cfg := Config{
		Session:       Exponential(session),
		Gap:           Exponential(gap),
		InitialOnline: ExpectedAvailability(session, gap),
	}
	quiet := sim.New(sim.WithSeed(15))
	qp, err := New(quiet, n, cfg, func(int) {}, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	busy := sim.New(sim.WithSeed(15))
	nm := netmodel.New(busy, netmodel.WithJitter(0.1))
	ids := make([]netmodel.NodeID, n)
	for i := range ids {
		ids[i] = nm.AddNode(netmodel.Europe, 0)
	}
	other, lookups := busy.Stream("other"), busy.Stream("e15")
	noise := func(node int) {
		busy.After(0, func() { other.Float64() })
		busy.After(time.Duration(other.Intn(5000))*time.Millisecond, func() {
			nm.SetUp(ids[lookups.Intn(n)], other.Bool(0.5))
		})
		nm.Send(ids[node], ids[other.Intn(n)], 100, func() { lookups.Uint64() })
	}
	bp, err := New(busy, n, cfg, func(node int) {
		nm.SetUp(ids[node], true)
		noise(node)
	}, func(node int) {
		noise(node)
		nm.SetUp(ids[node], false)
	})
	if err != nil {
		t.Fatal(err)
	}
	qp.Start()
	bp.Start()
	const checkpoints = 24
	for c := 1; c <= checkpoints; c++ {
		at := time.Duration(c) * 2 * time.Hour / checkpoints
		if err := quiet.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if err := busy.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if qp.Online(i) != bp.Online(i) {
				t.Fatalf("at %v node %d: online %t with no-op callbacks, %t with busy ones", at, i, qp.Online(i), bp.Online(i))
			}
		}
	}
	if q, b := qp.OnlineCount(), bp.OnlineCount(); q != b {
		t.Fatalf("OnlineCount at 2h: %d with no-op callbacks, %d with busy ones", q, b)
	}
	if busy.Fired() <= quiet.Fired() {
		t.Fatalf("busy kernel fired %d events, quiet %d: the callbacks did no work", busy.Fired(), quiet.Fired())
	}
}

// A churn transition allocates nothing: it schedules the node's next one
// with AfterFunc, a package-level handler and the node in the payload, on
// an event the kernel recycles. One measured run covers about 1 600
// transitions, so AllocsPerRun's per-run count is their exact total.
func TestTransitionAllocs(t *testing.T) {
	s := sim.New(sim.WithSeed(3))
	const n = 200
	transitions := 0
	count := func(int) { transitions++ }
	p, err := New(s, n, Config{
		Session:       Exponential(10 * time.Minute),
		Gap:           Exponential(5 * time.Minute),
		InitialOnline: ExpectedAvailability(10*time.Minute, 5*time.Minute),
	}, count, count)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	horizon := time.Duration(0)
	run := func() {
		horizon += time.Hour
		if err := s.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	run() // the pending events reach their steady count
	before := transitions
	if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
		t.Fatalf("%.0f allocations over %d transitions, want 0", allocs, (transitions-before)/2)
	}
	if per := (transitions - before) / 2; per < 1000 {
		t.Fatalf("%d transitions per measured hour: the process does not churn", per)
	}
}
