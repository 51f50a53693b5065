package raft

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

func newCluster(t *testing.T, n int, seed int64) (*sim.Sim, *Cluster) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	c, err := NewCluster(s, nm, n, netmodel.Europe)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return s, c
}

func TestValidation(t *testing.T) {
	s := sim.New()
	nm := netmodel.New(s)
	if _, err := NewCluster(s, nm, 2, netmodel.Europe); err == nil {
		t.Fatal("even n should error")
	}
	if _, err := NewCluster(s, nm, 1, netmodel.Europe); err == nil {
		t.Fatal("n=1 should error")
	}
}

func TestElectsSingleLeader(t *testing.T) {
	s, c := newCluster(t, 5, 1)
	c.Start()
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	leaders := 0
	var leaderTerm int
	for _, n := range c.Nodes() {
		if n.role == Leader {
			leaders++
			leaderTerm = n.term
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
	// All nodes should share the leader's term.
	for _, n := range c.Nodes() {
		if n.term != leaderTerm {
			t.Fatalf("node %d term %d != leader term %d", n.ID(), n.term, leaderTerm)
		}
	}
}

func TestReplicatesAndCommits(t *testing.T) {
	s, c := newCluster(t, 5, 2)
	c.Start()
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if !c.Submit(Request{ID: i, SubmittedAt: s.Now()}) {
			t.Fatal("Submit failed with an elected leader")
		}
	}
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.committed != 10 {
		t.Fatalf("Committed = %d, want 10", c.committed)
	}
	// Every live node converges to the same commit index.
	for _, n := range c.Nodes() {
		if n.commit != 9 {
			t.Fatalf("node %d commit = %d, want 9", n.ID(), n.commit)
		}
	}
}

func TestLogConsistencyProperty(t *testing.T) {
	s, c := newCluster(t, 5, 3)
	applied := make(map[int]map[int]int) // index -> node -> req id
	c.OnApply(func(node, index int, req Request) {
		if applied[index] == nil {
			applied[index] = make(map[int]int)
		}
		applied[index][node] = req.ID
	})
	c.Start()
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 50; i++ {
		i := i
		s.After(time.Duration(i)*20*time.Millisecond, func() {
			c.Submit(Request{ID: i, SubmittedAt: s.Now()})
		})
	}
	if err := s.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// State-machine safety: all nodes apply the same request at each index.
	for idx, byNode := range applied {
		var want = -1
		for node, id := range byNode {
			if want == -1 {
				want = id
			} else if id != want {
				t.Fatalf("index %d applied as %d at one node and %d at node %d", idx, want, id, node)
			}
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	s, c := newCluster(t, 5, 4)
	c.Start()
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	old := c.Leader()
	if old == nil {
		t.Fatal("no initial leader")
	}
	c.Crash(old.ID())
	if err := s.RunUntil(15 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	replacement := c.Leader()
	if replacement == nil {
		t.Fatal("no new leader after crash")
	}
	if replacement.ID() == old.ID() {
		t.Fatal("crashed node still leader")
	}
	if !c.Submit(Request{ID: 99, SubmittedAt: s.Now()}) {
		t.Fatal("Submit after failover failed")
	}
	if err := s.RunUntil(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.committed == 0 {
		t.Fatal("nothing committed after failover")
	}
}

func TestMinorityCrashTolerated(t *testing.T) {
	s, c := newCluster(t, 5, 5)
	c.Start()
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Crash two non-leader nodes (minority).
	crashed := 0
	for _, n := range c.Nodes() {
		if n.role != Leader && crashed < 2 {
			c.Crash(n.ID())
			crashed++
		}
	}
	for i := 0; i < 5; i++ {
		c.Submit(Request{ID: i, SubmittedAt: s.Now()})
	}
	if err := s.RunUntil(15 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.committed != 5 {
		t.Fatalf("Committed = %d with minority down, want 5", c.committed)
	}
}

func TestMajorityCrashBlocks(t *testing.T) {
	s, c := newCluster(t, 5, 6)
	c.Start()
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Crash three nodes including whoever is leader.
	leader := c.Leader()
	c.Crash(leader.ID())
	crashed := 1
	for _, n := range c.Nodes() {
		if n.ID() != leader.ID() && crashed < 3 {
			c.Crash(n.ID())
			crashed++
		}
	}
	if err := s.RunUntil(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Leader() != nil {
		t.Fatal("a leader exists without a quorum")
	}
	if c.Submit(Request{ID: 1, SubmittedAt: s.Now()}) {
		t.Fatal("Submit should fail without a leader")
	}
}

func TestRecoveredNodeCatchesUp(t *testing.T) {
	s, c := newCluster(t, 3, 7)
	c.Start()
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var victim *Node
	for _, n := range c.Nodes() {
		if n.role != Leader {
			victim = n
			break
		}
	}
	c.Crash(victim.ID())
	for i := 0; i < 10; i++ {
		c.Submit(Request{ID: i, SubmittedAt: s.Now()})
	}
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c.Recover(victim.ID())
	if err := s.RunUntil(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if victim.commit != 9 {
		t.Fatalf("recovered node commit = %d, want 9", victim.commit)
	}
}

func TestRunLoadThroughput(t *testing.T) {
	s, c := newCluster(t, 5, 8)
	st, err := c.RunLoad(1000, 10*time.Second)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	_ = s
	if st.TPS < 800 {
		t.Fatalf("TPS = %v, want ~1000", st.TPS)
	}
	if st.MeanLatency > 500*time.Millisecond {
		t.Fatalf("mean latency = %v, want one-RTT commits", st.MeanLatency)
	}
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("Role strings wrong")
	}
	if Role(0).String() != "unknown" {
		t.Fatal("zero Role should be unknown")
	}
}

// TestInFlightAppendAcrossCrash pins what happens to a message already in
// flight when its receiver's state changes: a crashed receiver does not
// handle it, one that crashed and recovered before it arrives does, and a
// receiver held down by an outage window (down, not crashed) handles
// nothing. The leader's heartbeat is stopped first, so the eager append
// Submit sends is the only message that can carry the entry.
func TestInFlightAppendAcrossCrash(t *testing.T) {
	cases := []struct {
		name            string
		crash, recover  bool
		outage          bool
		wantFollowerLog int
	}{
		{name: "crashed at arrival", crash: true, wantFollowerLog: 0},
		{name: "recovered before arrival", crash: true, recover: true, wantFollowerLog: 1},
		{name: "down, not crashed", outage: true, wantFollowerLog: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newCluster(t, 3, 11)
			c.Start()
			if err := s.RunUntil(5 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			leader := c.Leader()
			if leader == nil {
				t.Fatal("no leader")
			}
			leader.heartbeat.Stop()
			leader.heartbeat = nil
			f := c.nodes[(leader.id+1)%3]
			t0 := s.Now()
			if tc.outage {
				if err := c.net.ScheduleOutageWindow(t0, t0+time.Second, f.addr); err != nil {
					t.Fatalf("ScheduleOutageWindow: %v", err)
				}
			}
			if !c.Submit(Request{ID: 1, SubmittedAt: t0}) {
				t.Fatal("Submit refused")
			}
			if tc.crash {
				c.Crash(f.id)
			}
			if tc.recover {
				// Europe's one-way delay is 15 ms ±10 %: the append is
				// still in flight a millisecond later.
				s.After(time.Millisecond, func() { c.Recover(f.id) })
			}
			if err := s.RunFor(400 * time.Millisecond); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(f.log) != tc.wantFollowerLog {
				t.Fatalf("follower log length = %d, want %d", len(f.log), tc.wantFollowerLog)
			}
			if tc.outage && f.crashed {
				t.Fatal("an outage window must not mark the node crashed")
			}
			// The other follower alone gives the leader its majority.
			if leader.commit != 0 {
				t.Fatalf("leader commit index = %d, want 0", leader.commit)
			}
		})
	}
}

// TestRunLoadPinned compares one load run's statistics and every commit
// latency with a digest captured at the commit where RunLoad still carried
// its own Poisson arrival loop and latency summary.
func TestRunLoadPinned(t *testing.T) {
	_, c := newCluster(t, 5, 21)
	st, err := c.RunLoad(300, 4*time.Second)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%x|%d|%d\n", math.Float64bits(st.TPS), st.MeanLatency, st.P99Latency)
	for _, d := range c.latency {
		fmt.Fprintf(h, "%d\n", d)
	}
	if len(c.latency) < 1000 {
		t.Fatalf("only %d commits", len(c.latency))
	}
	const want = "02a9988dbcec5d7888151d669b10b33d24bfe29f5df1b1d8059f45a532ee1a58"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("load run digest %s, want %s", got, want)
	}
}
