package pbft

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func newCluster(t *testing.T, n int, seed int64, cfg Config) (*sim.Sim, *Cluster) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	c, err := NewCluster(s, nm, n, netmodel.Europe, cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return s, c
}

func TestValidation(t *testing.T) {
	s := sim.New()
	nm := netmodel.New(s)
	if _, err := NewCluster(s, nm, 3, netmodel.Europe, Config{}); err == nil {
		t.Fatal("n=3 should error (not 3f+1)")
	}
	if _, err := NewCluster(s, nm, 5, netmodel.Europe, Config{}); err == nil {
		t.Fatal("n=5 should error (not 3f+1)")
	}
	if _, err := NewCluster(s, nm, 4, netmodel.Europe, Config{}); err != nil {
		t.Fatalf("n=4 should work: %v", err)
	}
}

func TestBasicCommit(t *testing.T) {
	s, c := newCluster(t, 4, 1, Config{BatchSize: 1})
	c.Submit(Request{ID: 1, SubmittedAt: s.Now()})
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.committed != 1 {
		t.Fatalf("Committed = %d, want 1", c.committed)
	}
	// All live replicas execute the same sequence.
	for _, r := range c.replicas {
		if r.lastExe != 0 {
			t.Fatalf("replica %d LastExecuted = %d, want 0", r.id, r.lastExe)
		}
	}
}

func TestBatchingAmortizesMessages(t *testing.T) {
	run := func(batch int) float64 {
		s, c := newCluster(t, 4, 2, Config{BatchSize: batch, BatchTimeout: 10 * time.Millisecond})
		st, err := c.RunLoad(500, 10*time.Second)
		if err != nil {
			t.Fatalf("RunLoad: %v", err)
		}
		_ = s
		return st.MsgsPerReq
	}
	single := run(1)
	batched := run(100)
	if batched*5 > single {
		t.Fatalf("batching should slash per-request messages: batch1=%v batch100=%v", single, batched)
	}
}

func TestThroughputFarAboveBitcoin(t *testing.T) {
	s, c := newCluster(t, 4, 3, Config{BatchSize: 200, BatchTimeout: 20 * time.Millisecond})
	st, err := c.RunLoad(2000, 20*time.Second)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	_ = s
	if st.TPS < 1500 {
		t.Fatalf("TPS = %v, want ~2000 (hundreds of times Bitcoin's 7)", st.TPS)
	}
	if st.MeanLatency > time.Second {
		t.Fatalf("mean latency = %v, want sub-second finality", st.MeanLatency)
	}
}

func TestSubSecondFinality(t *testing.T) {
	s, c := newCluster(t, 7, 4, Config{BatchSize: 10, BatchTimeout: 10 * time.Millisecond})
	st, err := c.RunLoad(100, 10*time.Second)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	_ = s
	if st.P99Latency > time.Second {
		t.Fatalf("P99 latency = %v, want < 1s", st.P99Latency)
	}
}

func TestSurvivesFBackupCrashes(t *testing.T) {
	s, c := newCluster(t, 7, 5, Config{BatchSize: 1}) // f = 2
	c.Crash(3)
	c.Crash(5)
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Duration(i)*100*time.Millisecond, func() {
			c.Submit(Request{ID: i, SubmittedAt: s.Now()})
		})
	}
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.committed != 10 {
		t.Fatalf("Committed = %d with f crashes, want 10", c.committed)
	}
}

func TestPrimaryCrashTriggersViewChange(t *testing.T) {
	s, c := newCluster(t, 4, 6, Config{BatchSize: 1, ViewChangeTimeout: 500 * time.Millisecond})
	c.Crash(0) // primary of view 0
	c.Submit(Request{ID: 1, SubmittedAt: s.Now()})
	// Resubmit after the view change, as real clients do.
	s.After(3*time.Second, func() {
		c.Submit(Request{ID: 2, SubmittedAt: s.Now()})
	})
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.viewChanges == 0 {
		t.Fatal("no view change despite crashed primary")
	}
	live := c.replicas[1]
	if live.view == 0 {
		t.Fatal("replicas did not move past view 0")
	}
	if c.committed == 0 {
		t.Fatal("no commits after failover")
	}
}

func TestEquivocatingPrimaryCannotSplitState(t *testing.T) {
	s, c := newCluster(t, 4, 7, Config{BatchSize: 1, ViewChangeTimeout: time.Hour})
	c.MakeEquivocating(0)
	var executions []struct {
		replica, seq int
		digest       int
	}
	c.onExecute = func(replica, seq int, batch []Request) {
		d := -1
		if len(batch) > 0 {
			d = batch[0].ID
		}
		executions = append(executions, struct {
			replica, seq int
			digest       int
		}{replica, seq, d})
	}
	c.Submit(Request{ID: 42, SubmittedAt: s.Now()})
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Safety: no two replicas may execute different requests at the same
	// sequence number. (Liveness may be lost — that is what view changes
	// are for.)
	bySeq := make(map[int]int)
	for _, e := range executions {
		if prev, ok := bySeq[e.seq]; ok && prev != e.digest {
			t.Fatalf("safety violation: seq %d executed both %d and %d", e.seq, prev, e.digest)
		}
		bySeq[e.seq] = e.digest
	}
}

func TestMessageComplexityQuadratic(t *testing.T) {
	msgs := func(n int) float64 {
		s, c := newCluster(t, n, 8, Config{BatchSize: 1})
		c.Submit(Request{ID: 1, SubmittedAt: s.Now()})
		if err := s.RunUntil(5 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if c.committed != 1 {
			t.Fatalf("n=%d: Committed = %d", n, c.committed)
		}
		return float64(c.msgs)
	}
	small := msgs(4)
	big := msgs(16)
	// 16/4 = 4x replicas should cost ~16x messages (O(n^2)).
	ratio := big / small
	if ratio < 8 {
		t.Fatalf("message growth ratio = %v, want quadratic (~16x for 4x nodes)", ratio)
	}
}

func TestRecoverRejoins(t *testing.T) {
	s, c := newCluster(t, 4, 9, Config{BatchSize: 1})
	c.Crash(2)
	c.Submit(Request{ID: 1, SubmittedAt: s.Now()})
	s.After(2*time.Second, func() {
		c.Recover(2)
		c.Submit(Request{ID: 2, SubmittedAt: s.Now()})
	})
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.committed != 2 {
		t.Fatalf("Committed = %d, want 2", c.committed)
	}
	// The recovered replica participates in the second slot.
	if c.replicas[2].lastExe < 0 {
		t.Fatal("recovered replica executed nothing")
	}
}

func TestRunLoadValidation(t *testing.T) {
	_, c := newCluster(t, 4, 10, Config{})
	if _, err := c.RunLoad(0, time.Second); err == nil {
		t.Fatal("zero rate should error")
	}
}

// TestInFlightPrePrepareAcrossCrash pins what happens to a message already
// in flight when its receiver's state changes: a crashed replica does not
// handle it, one that crashed and recovered before it arrives does, and a
// replica held down by an outage window (down, not crashed) handles
// nothing. With one-request batches and no view change the pre-prepare is
// sent exactly once, and a replica cannot execute without it.
func TestInFlightPrePrepareAcrossCrash(t *testing.T) {
	cases := []struct {
		name           string
		crash, recover bool
		outage         bool
		wantLastExe    int
	}{
		{name: "crashed at arrival", crash: true, wantLastExe: -1},
		{name: "recovered before arrival", crash: true, recover: true, wantLastExe: 0},
		{name: "down, not crashed", outage: true, wantLastExe: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newCluster(t, 4, 12, Config{BatchSize: 1, ViewChangeTimeout: time.Hour})
			r := c.replicas[3]
			if tc.outage {
				if err := c.net.ScheduleOutageWindow(0, time.Second, r.addr); err != nil {
					t.Fatalf("ScheduleOutageWindow: %v", err)
				}
			}
			c.Submit(Request{ID: 7, SubmittedAt: s.Now()})
			if tc.crash {
				c.Crash(r.id)
			}
			if tc.recover {
				// Europe's one-way delay is 15 ms ±10 %: the pre-prepare
				// is still in flight a millisecond later.
				s.After(time.Millisecond, func() { c.Recover(r.id) })
			}
			if err := s.RunUntil(2 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r.lastExe != tc.wantLastExe {
				t.Fatalf("replica 3 last executed = %d, want %d", r.lastExe, tc.wantLastExe)
			}
			if tc.wantLastExe < 0 && len(r.log) != 0 {
				t.Fatalf("replica 3 built %d instances from messages it should never have handled", len(r.log))
			}
			if tc.outage && r.crashed {
				t.Fatal("an outage window must not mark the replica crashed")
			}
			// The other three replicas are a quorum on their own.
			if c.committed != 1 {
				t.Fatalf("committed = %d, want 1", c.committed)
			}
		})
	}
}

// TestRunLoadPinned compares one load run's statistics and every commit
// latency with a digest captured at the commit where RunLoad still carried
// its own Poisson arrival loop and latency summary.
func TestRunLoadPinned(t *testing.T) {
	_, c := newCluster(t, 4, 21, Config{})
	st, err := c.RunLoad(300, 4*time.Second)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%x|%d|%d|%x\n", math.Float64bits(st.TPS), st.MeanLatency, st.P99Latency, math.Float64bits(st.MsgsPerReq))
	for _, d := range c.commitLatency {
		fmt.Fprintf(h, "%d\n", d)
	}
	if len(c.commitLatency) < 1000 {
		t.Fatalf("only %d commits", len(c.commitLatency))
	}
	const want = "212ba14d158c84ab5b8a63c7b278d37fe4216d3ea7dde5d3576a9664481aadcc"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("load run digest %s, want %s", got, want)
	}
}
