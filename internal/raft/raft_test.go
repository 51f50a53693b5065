package raft

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
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
	if len(c.latency) != 10 {
		t.Fatalf("Committed = %d, want 10", len(c.latency))
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
	if len(c.latency) == 0 {
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
	if len(c.latency) != 5 {
		t.Fatalf("Committed = %d with minority down, want 5", len(c.latency))
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

// TestInFlightEntriesSurviveTruncation checks the shared-log invariant. An
// append carries a slice of its leader's log, not a copy; here the leader
// steps down before its appends arrive and, as a follower, truncates the
// entry they carry and appends a newer leader's entry in its place. The
// appends must still deliver the entry they were sent with.
func TestInFlightEntriesSurviveTruncation(t *testing.T) {
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
	for i := 0; i < 3; i++ {
		c.Submit(Request{ID: i, SubmittedAt: s.Now()})
	}
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Submit sends the entry to both followers; Europe's 15 ms one-way
	// delay keeps it in flight while the leader is deposed.
	c.Submit(Request{ID: 100, SubmittedAt: s.Now()})
	idx := len(leader.log) - 1
	sent := leader.log[idx]
	next := entry{term: leader.term + 1, req: Request{ID: 200, SubmittedAt: s.Now()}}
	c.onAppend(leader, c.nodes[(leader.id+1)%3], next.term, idx-1, leader.log[idx-1].term, []entry{next}, leader.commit)
	if leader.role != Follower || len(leader.log) != idx+1 || leader.log[idx] != next {
		t.Fatalf("deposed leader: role %v, log length %d, entry %d = %+v; want follower holding %+v at its end",
			leader.role, len(leader.log), idx, leader.log[idx], next)
	}
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range c.nodes {
		if f == leader {
			continue
		}
		if len(f.log) != idx+1 || f.log[idx] != sent {
			t.Fatalf("follower %d: log length %d, last entry %+v; the append in flight carried %+v at index %d",
				f.id, len(f.log), f.log[len(f.log)-1], sent, idx)
		}
	}
}

// TestReplicationSteadyStateAllocs pins replication's cost on a warm
// cluster: a Submit, its appends to every follower, their replies and the
// commit allocate nothing once the logs have room for the entry.
func TestReplicationSteadyStateAllocs(t *testing.T) {
	s, c := newCluster(t, 5, 12)
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
	const runs = 100
	// Log growth is amortized and not what this pins: leave room for the
	// warm-up round, AllocsPerRun's own warm-up call and the runs.
	for _, n := range c.nodes {
		n.log = slices.Grow(n.log, runs+2)
	}
	c.latency = slices.Grow(c.latency, runs+2)
	id := 0
	round := func() {
		c.Submit(Request{ID: id, SubmittedAt: s.Now()})
		id++
		if err := s.RunFor(50 * time.Millisecond); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	round() // fills the message free list and the kernel's event pool
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("replication round allocates %v per Submit, want 0", allocs)
	}
	if len(c.latency) != id {
		t.Fatalf("committed %d of %d", len(c.latency), id)
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

// TestFailoverPinned digests every application (node, index, request id,
// time) and every leader commit latency of a load run whose leader crashes
// with appends in flight and later recovers as a follower, truncating the
// entries it could not commit. The literal was captured at the commit where
// every append carried its own copy of the unacknowledged log suffix.
func TestFailoverPinned(t *testing.T) {
	s, c := newCluster(t, 5, 22)
	h := sha256.New()
	applies := 0
	c.OnApply(func(node, index int, req Request) {
		applies++
		fmt.Fprintf(h, "%d %d %d %d\n", node, index, req.ID, s.Now())
	})
	crashed := -1
	s.At(4*time.Second, func() {
		crashed = c.Leader().id
		c.Crash(crashed)
	})
	s.At(6*time.Second, func() { c.Recover(crashed) })
	if _, err := c.RunLoad(400, 6*time.Second); err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	for _, d := range c.latency {
		fmt.Fprintf(h, "%d\n", d)
	}
	t.Logf("leader %d crashed; %d applies, %d leader commits", crashed, applies, len(c.latency))
	if c.nodes[crashed].commit != c.Leader().commit {
		t.Fatalf("recovered node commit %d, leader %d", c.nodes[crashed].commit, c.Leader().commit)
	}
	const want = "75ca95a21441817021dcf993dab4acd0897b69339aaab3dd8aec87ccb44c60ee"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("failover digest %s, want %s", got, want)
	}
}
