// Package raft implements the Raft consensus protocol (Ongaro & Ousterhout
// 2014): randomized leader election, log replication, and majority commit.
// It plays the role of the crash-fault-tolerant ordering service in the
// permissioned blockchain stack (Fabric's Raft orderer), the cheaper
// alternative to PBFT when participants are authenticated and merely
// crash-prone rather than Byzantine.
package raft

import (
	"errors"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Role is a node's protocol role.
type Role int

// The Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "unknown"
	}
}

// Cluster timing and sizes.
const (
	// electionTimeoutMin and electionTimeoutMax bound the randomized
	// election timeout.
	electionTimeoutMin = 500 * time.Millisecond
	electionTimeoutMax = 2 * electionTimeoutMin
	// heartbeatInterval is the leader's append/heartbeat period.
	heartbeatInterval = electionTimeoutMin / 5
	// reqSize is the per-entry payload size in bytes.
	reqSize = 200
)

// Request is a client command to replicate.
type Request struct {
	ID          int
	SubmittedAt time.Duration
}

type entry struct {
	term int
	req  Request
}

// Node is one Raft participant.
type Node struct {
	id   int
	addr netmodel.NodeID

	role     Role
	term     int
	votedFor int
	log      []entry
	commit   int // highest committed index (-1 none)
	applied  int // highest applied index (-1 none)

	votes      map[int]bool
	nextIndex  []int
	matchIndex []int

	electionTimer sim.Handle
	heartbeat     *sim.Ticker
	crashed       bool
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Addr returns the node's network address.
func (n *Node) Addr() netmodel.NodeID { return n.addr }

// Cluster is a Raft group over a simulated network.
type Cluster struct {
	sim *sim.Sim
	net *netmodel.Net
	rng *sim.RNG

	nodes []*Node

	committed int
	latency   []time.Duration

	onApply func(node, index int, req Request)
}

// NewCluster creates an n-node cluster (n must be odd and >= 3).
func NewCluster(s *sim.Sim, nm *netmodel.Net, n int, region netmodel.Region) (*Cluster, error) {
	if n < 3 || n%2 == 0 {
		return nil, errors.New("raft: n must be odd and >= 3")
	}
	c := &Cluster{
		sim: s,
		net: nm,
		rng: s.Stream("raft"),
	}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &Node{
			id:       i,
			addr:     nm.AddNode(region, 0),
			role:     Follower,
			votedFor: -1,
			commit:   -1,
			applied:  -1,
		})
	}
	return c, nil
}

// Start arms every node's election timer. Run the simulator to elect a
// leader.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		c.resetElectionTimer(n)
	}
}

// Nodes returns the nodes (shared slice; do not modify).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Leader returns the current leader with the highest term, or nil.
func (c *Cluster) Leader() *Node {
	var best *Node
	for _, n := range c.nodes {
		if n.role == Leader && !n.crashed && (best == nil || n.term > best.term) {
			best = n
		}
	}
	return best
}

// OnApply registers an observer of applied entries.
func (c *Cluster) OnApply(fn func(node, index int, req Request)) { c.onApply = fn }

// Crash fail-stops a node.
func (c *Cluster) Crash(id int) {
	if id < 0 || id >= len(c.nodes) {
		return
	}
	n := c.nodes[id]
	n.crashed = true
	c.net.SetUp(n.addr, false)
	if n.heartbeat != nil {
		n.heartbeat.Stop()
		n.heartbeat = nil
	}
	n.electionTimer.Cancel()
}

// Recover restarts a crashed node as a follower with its log intact.
func (c *Cluster) Recover(id int) {
	if id < 0 || id >= len(c.nodes) {
		return
	}
	n := c.nodes[id]
	n.crashed = false
	n.role = Follower
	c.net.SetUp(n.addr, true)
	c.resetElectionTimer(n)
}

// Submit proposes a request via the current leader. It returns false when
// no leader is known (clients retry in that case).
func (c *Cluster) Submit(req Request) bool {
	leader := c.Leader()
	if leader == nil {
		return false
	}
	leader.log = append(leader.log, entry{term: leader.term, req: req})
	leader.matchIndex[leader.id] = len(leader.log) - 1
	// Replicate eagerly (heartbeat also retries).
	for _, peer := range c.nodes {
		if peer != leader {
			c.sendAppend(leader, peer)
		}
	}
	return true
}

func (c *Cluster) resetElectionTimer(n *Node) {
	n.electionTimer.Cancel()
	d := electionTimeoutMin + time.Duration(c.rng.Float64()*float64(electionTimeoutMax-electionTimeoutMin))
	n.electionTimer = c.sim.After(d, func() { c.startElection(n) })
}

func (c *Cluster) startElection(n *Node) {
	if n.crashed || n.role == Leader {
		return
	}
	n.term++
	n.role = Candidate
	n.votedFor = n.id
	n.votes = map[int]bool{n.id: true}
	c.resetElectionTimer(n)
	lastIdx := len(n.log) - 1
	lastTerm := 0
	if lastIdx >= 0 {
		lastTerm = n.log[lastIdx].term
	}
	term := n.term
	for _, peer := range c.nodes {
		if peer == n {
			continue
		}
		peer := peer
		c.send(n, peer, 64, func() {
			c.onRequestVote(peer, n, term, lastIdx, lastTerm)
		})
	}
}

func (c *Cluster) onRequestVote(n, candidate *Node, term, lastIdx, lastTerm int) {
	if n.crashed {
		return
	}
	if term > n.term {
		c.stepDown(n, term)
	}
	grant := false
	if term == n.term && (n.votedFor == -1 || n.votedFor == candidate.id) {
		// Candidate's log must be at least as up to date.
		myLastIdx := len(n.log) - 1
		myLastTerm := 0
		if myLastIdx >= 0 {
			myLastTerm = n.log[myLastIdx].term
		}
		if lastTerm > myLastTerm || (lastTerm == myLastTerm && lastIdx >= myLastIdx) {
			grant = true
			n.votedFor = candidate.id
			c.resetElectionTimer(n)
		}
	}
	if !grant {
		return
	}
	votedTerm := term
	c.send(n, candidate, 32, func() {
		c.onVote(candidate, n.id, votedTerm)
	})
}

func (c *Cluster) onVote(n *Node, from, term int) {
	if n.crashed || n.role != Candidate || term != n.term {
		return
	}
	n.votes[from] = true
	if len(n.votes) <= len(c.nodes)/2 {
		return
	}
	// Won the election.
	n.role = Leader
	n.nextIndex = make([]int, len(c.nodes))
	n.matchIndex = make([]int, len(c.nodes))
	for i := range n.nextIndex {
		n.nextIndex[i] = len(n.log)
		n.matchIndex[i] = -1
	}
	n.matchIndex[n.id] = len(n.log) - 1
	n.electionTimer.Cancel()
	for _, peer := range c.nodes {
		if peer != n {
			c.sendAppend(n, peer)
		}
	}
	hb, err := c.sim.Every(heartbeatInterval, func() {
		if n.crashed || n.role != Leader {
			if n.heartbeat != nil {
				n.heartbeat.Stop()
				n.heartbeat = nil
			}
			return
		}
		for _, peer := range c.nodes {
			if peer != n {
				c.sendAppend(n, peer)
			}
		}
	})
	if err == nil {
		n.heartbeat = hb
	}
}

func (c *Cluster) stepDown(n *Node, term int) {
	n.term = term
	n.role = Follower
	n.votedFor = -1
	if n.heartbeat != nil {
		n.heartbeat.Stop()
		n.heartbeat = nil
	}
	c.resetElectionTimer(n)
}

// sendAppend ships log entries (or a heartbeat) from leader to peer.
func (c *Cluster) sendAppend(leader, peer *Node) {
	if leader.crashed || leader.role != Leader {
		return
	}
	next := leader.nextIndex[peer.id]
	if next < 0 {
		next = 0
	}
	prevIdx := next - 1
	prevTerm := 0
	if prevIdx >= 0 && prevIdx < len(leader.log) {
		prevTerm = leader.log[prevIdx].term
	}
	entries := make([]entry, len(leader.log)-next)
	copy(entries, leader.log[next:])
	size := 64 + reqSize*len(entries)
	term := leader.term
	commit := leader.commit
	c.send(leader, peer, size, func() {
		c.onAppend(peer, leader, term, prevIdx, prevTerm, entries, commit)
	})
}

func (c *Cluster) onAppend(n, leader *Node, term, prevIdx, prevTerm int, entries []entry, leaderCommit int) {
	if n.crashed {
		return
	}
	if term < n.term {
		return
	}
	if term > n.term || n.role == Candidate {
		c.stepDown(n, term)
	}
	c.resetElectionTimer(n)
	// Consistency check.
	if prevIdx >= 0 {
		if prevIdx >= len(n.log) || n.log[prevIdx].term != prevTerm {
			// Reject: leader will back off nextIndex.
			c.send(n, leader, 32, func() {
				c.onAppendReply(leader, n, term, false, -1)
			})
			return
		}
	}
	// Append/overwrite entries.
	for i, e := range entries {
		idx := prevIdx + 1 + i
		if idx < len(n.log) {
			if n.log[idx].term != e.term {
				n.log = n.log[:idx]
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	matched := prevIdx + len(entries)
	if leaderCommit > n.commit {
		n.commit = min(leaderCommit, len(n.log)-1)
		c.apply(n)
	}
	c.send(n, leader, 32, func() {
		c.onAppendReply(leader, n, term, true, matched)
	})
}

func (c *Cluster) onAppendReply(leader, from *Node, term int, ok bool, matched int) {
	if leader.crashed || leader.role != Leader || term != leader.term {
		return
	}
	if !ok {
		if leader.nextIndex[from.id] > 0 {
			leader.nextIndex[from.id]--
		}
		c.sendAppend(leader, from)
		return
	}
	if matched > leader.matchIndex[from.id] {
		leader.matchIndex[from.id] = matched
	}
	if matched+1 > leader.nextIndex[from.id] {
		leader.nextIndex[from.id] = matched + 1
	}
	// Advance commit index: the largest N replicated on a majority with an
	// entry from the current term.
	idxs := make([]int, len(leader.matchIndex))
	copy(idxs, leader.matchIndex)
	sort.Ints(idxs)
	majority := idxs[(len(idxs)-1)/2]
	for n := majority; n > leader.commit; n-- {
		if n < len(leader.log) && leader.log[n].term == leader.term {
			leader.commit = n
			c.apply(leader)
			break
		}
	}
}

// apply runs newly committed entries; leader applications account latency.
func (c *Cluster) apply(n *Node) {
	for n.applied < n.commit {
		n.applied++
		e := n.log[n.applied]
		if c.onApply != nil {
			c.onApply(n.id, n.applied, e.req)
		}
		if n.role == Leader {
			c.committed++
			c.latency = append(c.latency, c.sim.Now()-e.req.SubmittedAt)
		}
	}
}

// send needs no crash check of its own: Crash takes the node's address
// down with it, so the transport drops a delivery to a crashed node before
// deliver runs, and every handler re-checks crashed anyway.
func (c *Cluster) send(from, to *Node, size int, deliver func()) {
	c.net.Send(from.addr, to.addr, size, deliver)
}

// LoadStats summarizes a load run.
type LoadStats struct {
	TPS         float64
	MeanLatency time.Duration
	P99Latency  time.Duration
}

// RunLoad elects a leader, drives requests at the given rate for the given
// duration, and reports throughput/latency. Requests offered while no
// leader is known are dropped.
func (c *Cluster) RunLoad(rate float64, duration time.Duration) (LoadStats, error) {
	if rate <= 0 || duration <= 0 {
		return LoadStats{}, errors.New("raft: rate and duration must be positive")
	}
	c.Start()
	// Let the first election settle.
	if err := c.sim.RunFor(2 * electionTimeoutMax); err != nil {
		return LoadStats{}, err
	}
	start := c.sim.Now()
	err := workload.StartPoisson(c.sim, c.sim.Stream("raft.load"), rate, start+duration, func(id int) {
		c.Submit(Request{ID: id, SubmittedAt: c.sim.Now()})
	})
	if err != nil {
		return LoadStats{}, err
	}
	if err := c.sim.RunUntil(start + duration + 5*time.Second); err != nil {
		return LoadStats{}, err
	}
	st := LoadStats{TPS: float64(c.committed) / duration.Seconds()}
	st.MeanLatency, st.P99Latency = metrics.MeanP99(c.latency)
	return st, nil
}
