// Package raft implements the Raft consensus protocol (Ongaro & Ousterhout
// 2014): randomized leader election, log replication, and majority commit.
// It plays the role of the crash-fault-tolerant ordering service in the
// permissioned blockchain stack (Fabric's Raft orderer), the cheaper
// alternative to PBFT when participants are authenticated and merely
// crash-prone rather than Byzantine.
//
// Protocol messages are one pooled type: a message is taken from the
// cluster's free list, handed to the transport with the deliver func it was
// bound to when first allocated, and returned to the list once delivered (or
// when the transport refuses it), so steady-state replication allocates
// nothing per message.
//
// An append carries a capped slice of the leader's log, not a copy. That is
// safe because a log is append-only except at one truncation point in
// onAppend, and that truncation copies the kept prefix into a new array:
// every entry a slice in flight can see keeps its value until the slice is
// delivered.
package raft

import (
	"errors"
	"slices"
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
	onTimeout     func() // starts an election; bound once per node
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

	free    []*message // delivered messages, ready for reuse
	matches []int      // onAppendReply's scratch copy of matchIndex

	onApply func(node, index int, req Request)
}

// kind says which protocol message a message is.
type kind uint8

const (
	requestVote kind = iota
	grantVote
	appendEntries
	appendReply
)

// message is one protocol message. Which fields are set depends on its kind:
//
//	requestVote    term; index, logTerm: the candidate's last log entry
//	grantVote      term voted in
//	appendEntries  term; index, logTerm: the entry before entries; commit
//	appendReply    term of the append; ok; index: the last index matched
type message struct {
	c              *Cluster
	kind           kind
	from, to       *Node
	term           int
	index, logTerm int
	commit         int
	ok             bool
	entries        []entry
	deliver        func() // m.handle, bound when m was allocated
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
		node := &Node{
			id:       i,
			addr:     nm.AddNode(region, 0),
			role:     Follower,
			votedFor: -1,
			commit:   -1,
			applied:  -1,
		}
		node.onTimeout = func() { c.startElection(node) }
		c.nodes = append(c.nodes, node)
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
	n.electionTimer = c.sim.After(d, n.onTimeout)
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
	for _, peer := range c.nodes {
		if peer == n {
			continue
		}
		m := c.message(requestVote, n, peer, n.term)
		m.index, m.logTerm = lastIdx, lastTerm
		c.send(m, 64)
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
	c.send(c.message(grantVote, n, candidate, term), 32)
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
	m := c.message(appendEntries, leader, peer, leader.term)
	m.index, m.logTerm, m.commit = prevIdx, prevTerm, leader.commit
	// Shared, not copied: capped at the current length, so the leader's
	// later appends land beyond it, and no truncation writes in place.
	m.entries = leader.log[next:len(leader.log):len(leader.log)]
	c.send(m, 64+reqSize*len(m.entries))
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
	reply := c.message(appendReply, n, leader, term)
	if prevIdx >= 0 {
		if prevIdx >= len(n.log) || n.log[prevIdx].term != prevTerm {
			// Reject: leader will back off nextIndex.
			reply.index = -1
			c.send(reply, 32)
			return
		}
	}
	// Entries up to the last index both logs hold match if that one does
	// (Log Matching), so the scan for a conflict runs only when it does not.
	// The first conflicting entry and everything after it give way to the
	// leader's; the kept prefix is copied to a new array because appends
	// still in flight may share the old one.
	if last := min(len(n.log), prevIdx+1+len(entries)) - 1; last > prevIdx && n.log[last].term != entries[last-prevIdx-1].term {
		i := prevIdx + 1
		for n.log[i].term == entries[i-prevIdx-1].term {
			i++
		}
		n.log = append(n.log[:i:i], entries[i-prevIdx-1:]...)
	} else if k := len(n.log) - prevIdx - 1; k < len(entries) {
		n.log = append(n.log, entries[k:]...)
	}
	reply.ok, reply.index = true, prevIdx+len(entries)
	if leaderCommit > n.commit {
		n.commit = min(leaderCommit, len(n.log)-1)
		c.apply(n)
	}
	c.send(reply, 32)
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
	c.matches = append(c.matches[:0], leader.matchIndex...)
	slices.Sort(c.matches)
	majority := c.matches[(len(c.matches)-1)/2]
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

// message returns a message of the given kind and term from the free list,
// allocating (and binding its deliver func) only when the list is empty.
func (c *Cluster) message(k kind, from, to *Node, term int) *message {
	var m *message
	if last := len(c.free) - 1; last >= 0 {
		m, c.free = c.free[last], c.free[:last]
	} else {
		m = &message{c: c}
		m.deliver = m.handle
	}
	*m = message{c: c, kind: k, from: from, to: to, term: term, deliver: m.deliver}
	return m
}

// send hands m to the transport; a message the transport refuses goes
// straight back to the free list, and one dropped in flight is left to the
// garbage collector. send needs no crash check of its own: Crash takes the
// node's address down with it, so the transport drops a delivery to a
// crashed node before deliver runs, and every handler re-checks crashed
// anyway.
func (c *Cluster) send(m *message, size int) {
	if !c.net.Send(m.from.addr, m.to.addr, size, m.deliver) {
		c.release(m)
	}
}

func (c *Cluster) release(m *message) {
	m.entries = nil
	c.free = append(c.free, m)
}

// handle dispatches a delivered message to its handler, then recycles it.
func (m *message) handle() {
	c := m.c
	switch m.kind {
	case requestVote:
		c.onRequestVote(m.to, m.from, m.term, m.index, m.logTerm)
	case grantVote:
		c.onVote(m.to, m.from.id, m.term)
	case appendEntries:
		c.onAppend(m.to, m.from, m.term, m.index, m.logTerm, m.entries, m.commit)
	case appendReply:
		c.onAppendReply(m.to, m.from, m.term, m.ok, m.index)
	}
	c.release(m)
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
