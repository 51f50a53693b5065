package pbft

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

// TestVoteSteadyStateAllocs pins a vote's cost once its instance exists:
// sending a commit vote, delivering it and counting it allocate nothing.
func TestVoteSteadyStateAllocs(t *testing.T) {
	s, c := newCluster(t, 4, 13, Config{BatchSize: 1})
	c.Submit(Request{ID: 1, SubmittedAt: s.Now()})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	from, to := c.replicas[1], c.replicas[2]
	inst := to.instance(0)
	if inst == nil || !inst.executed {
		t.Fatal("seq 0 not executed")
	}
	vote := func() {
		m := c.message(commit, from, to)
		m.digest = inst.digest
		c.send(m, 96)
		if err := s.RunFor(50 * time.Millisecond); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	vote() // fills the message free list
	if allocs := testing.AllocsPerRun(100, vote); allocs != 0 {
		t.Errorf("a vote allocates %v, want 0", allocs)
	}
	if inst.commits.count != 4 {
		t.Fatalf("instance counts %d commit votes, want 4", inst.commits.count)
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

// TestScenarioDigestsPinned digests every execution (replica, seq, request
// ids, time) plus the message and view-change counts of four runs the
// default-batch load digest does not reach: sixteen replicas ordering one
// request per instance, a crashed primary, an equivocating primary, and a
// replica that crashes and recovers through state transfer. The literals
// were captured at the commit where votes were closures over a kind string
// counted in maps.
func TestScenarioDigestsPinned(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		seed  int64
		cfg   Config
		rate  float64
		dur   time.Duration
		setup func(s *sim.Sim, c *Cluster)
		want  string
	}{
		{
			name: "n16 batch1", n: 16, seed: 31, cfg: Config{BatchSize: 1},
			rate: 150, dur: 2 * time.Second,
			want: "1549d0c6d8efd5c799953e9601dca0c555cbf6568ceb1aca92490a23b13cf2b1",
		},
		{
			name: "crashed primary", n: 4, seed: 32,
			cfg:  Config{BatchSize: 1, ViewChangeTimeout: 500 * time.Millisecond},
			rate: 50, dur: 4 * time.Second,
			setup: func(_ *sim.Sim, c *Cluster) { c.Crash(0) },
			want:  "9fda872162bb4ab537ca369e467402d9e83286c38bef6574385a1653117caa0d",
		},
		{
			name: "equivocating primary", n: 7, seed: 33,
			cfg:  Config{BatchSize: 2, ViewChangeTimeout: time.Second},
			rate: 50, dur: 3 * time.Second,
			setup: func(s *sim.Sim, c *Cluster) {
				// View 0 orders honestly until its primary crashes; the
				// primary of view 1 equivocates.
				c.MakeEquivocating(1)
				s.After(time.Second, func() { c.Crash(0) })
			},
			want: "b943e1fa40d66d33a5804f5f18fa7eed2a28d3c01e90f69a25ac60f6937010e6",
		},
		{
			name: "crash then recover", n: 4, seed: 34, cfg: Config{BatchSize: 5},
			rate: 100, dur: 4 * time.Second,
			setup: func(s *sim.Sim, c *Cluster) {
				c.Crash(2)
				s.After(2*time.Second, func() { c.Recover(2) })
			},
			want: "3ec274ff3d11dcdde65a1103f6324be64e7cf8796884fafe0020821a46dfd9cd",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newCluster(t, tc.n, tc.seed, tc.cfg)
			h := sha256.New()
			executions := 0
			c.onExecute = func(replica, seq int, batch []Request) {
				executions++
				fmt.Fprintf(h, "%d %d %d:", replica, seq, s.Now())
				for _, r := range batch {
					fmt.Fprintf(h, " %d", r.ID)
				}
				fmt.Fprintln(h)
			}
			if tc.setup != nil {
				tc.setup(s, c)
			}
			if _, err := c.RunLoad(tc.rate, tc.dur); err != nil && !errors.Is(err, errNotRun) {
				t.Fatalf("RunLoad: %v", err)
			}
			fmt.Fprintf(h, "msgs %d view changes %d\n", c.msgs, c.viewChanges)
			t.Logf("%d executions, %d msgs, %d view changes", executions, c.msgs, c.viewChanges)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
