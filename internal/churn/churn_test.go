package churn

import (
	"math"
	"testing"
	"time"

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

func TestStopFreezesState(t *testing.T) {
	s := sim.New(sim.WithSeed(2))
	joins := 0
	p, err := New(s, 50, Config{
		Session:       Exponential(time.Minute),
		Gap:           Exponential(time.Minute),
		InitialOnline: 0.5,
	}, func(int) { joins++ }, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start()
	if err := s.RunUntil(10 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.Stop()
	before, joinsBefore := p.OnlineCount(), joins
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.OnlineCount() != before || joins != joinsBefore {
		t.Fatal("churn transitions occurred after Stop")
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
