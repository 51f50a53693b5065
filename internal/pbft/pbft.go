// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov 1999) with request batching in the style of BFT-SMaRt — the
// consensus core of permissioned blockchains like Hyperledger Fabric's BFT
// ordering service.
//
// n = 3f+1 replicas tolerate f Byzantine failures. The three-phase protocol
// (pre-prepare, prepare, commit) costs O(n²) messages per batch, which is
// exactly why permissioned deployments keep n in the tens — and why, at
// that scale, they outrun permissionless PoW by orders of magnitude (E13).
//
// Protocol messages are one pooled type dispatched by one handler: a message
// is taken from the cluster's free list, handed to the transport with the
// deliver func it was bound to when first allocated, and returned to the
// list once delivered (or when the transport refuses it). A replica's
// instances live in a slice indexed by sequence number, and an instance
// counts its prepare and commit votes in bitsets, so delivering a vote
// allocates nothing.
package pbft

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterizes the replica group.
type Config struct {
	// BatchSize is the number of client requests ordered per consensus
	// instance (BFT-SMaRt-style batching).
	BatchSize int
	// BatchTimeout flushes a non-empty partial batch.
	BatchTimeout time.Duration
	// ViewChangeTimeout is how long a replica waits for progress on a
	// pending request before demanding a new primary.
	ViewChangeTimeout time.Duration
}

// reqSize is the client-request payload size; protocol messages add fixed
// overhead.
const reqSize = 200

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 50 * time.Millisecond
	}
	if c.ViewChangeTimeout <= 0 {
		c.ViewChangeTimeout = 2 * time.Second
	}
	return c
}

// instance is one consensus slot at one replica. Votes may arrive before
// the pre-prepare (a "shell" instance); flags keep every transition
// idempotent.
type instance struct {
	digest      uint64
	batch       []Request
	preprepared bool
	sentPrepare bool
	sentCommit  bool
	committed   bool
	executed    bool
	prepares    voteSet
	commits     voteSet
	inline      [2]uint64 // both vote sets' bits when n <= 64
}

// voteSet is a set of replica ids, one bit per replica, and its size.
type voteSet struct {
	bits  []uint64
	count int
}

func (v *voteSet) add(id int) {
	w, b := id/64, uint64(1)<<(id%64)
	if v.bits[w]&b == 0 {
		v.bits[w] |= b
		v.count++
	}
}

func (v *voteSet) reset() {
	clear(v.bits)
	v.count = 0
}

// Request is a client request being ordered.
type Request struct {
	ID          int
	SubmittedAt time.Duration
}

// Replica is one PBFT participant.
type Replica struct {
	id      int
	addr    netmodel.NodeID
	view    int
	nextSeq int         // primary only
	log     []*instance // by seq; nil where no message has arrived
	lastExe int

	pending      []Request // primary's batch buffer
	batchTimer   sim.Handle
	progressT    sim.Handle
	onBatch      func()               // flushes the batch; bound once per replica
	onTimeout    func()               // starts a view change; bound once per replica
	vcVotes      map[int]map[int]bool // view -> voters
	crashed      bool
	byzantineMut bool // equivocating primary behaviour
}

// kind says which protocol message a message is.
type kind uint8

const (
	prePrepare kind = iota
	prepare
	commit
	viewChange
	stateTransfer
)

// message is one protocol message. prePrepare sets view, seq, digest and
// batch; a prepare or commit vote sets view, seq and digest; viewChange sets
// view, the view voted for; stateTransfer sets nothing, and its receiver
// reads the sender's log at delivery.
type message struct {
	c        *Cluster
	kind     kind
	from, to *Replica
	view     int
	seq      int
	digest   uint64
	batch    []Request
	deliver  func() // m.handle, bound when m was allocated
}

// Cluster is a PBFT replica group over a simulated network.
type Cluster struct {
	sim *sim.Sim
	net *netmodel.Net
	cfg Config
	f   int

	replicas []*Replica
	free     []*message // delivered messages, ready for reuse
	views    []int      // medianView's scratch

	// execution observation, set by in-package tests
	onExecute func(replica int, seq int, batch []Request)

	committed     int
	commitLatency []time.Duration
	msgs          int64
	viewChanges   int
}

// NewCluster creates n = 3f+1 replicas in the given region. n must satisfy
// n >= 4 and n ≡ 1 (mod 3).
func NewCluster(s *sim.Sim, nm *netmodel.Net, n int, region netmodel.Region, cfg Config) (*Cluster, error) {
	if n < 4 || (n-1)%3 != 0 {
		return nil, fmt.Errorf("pbft: n must be 3f+1 with f >= 1, got %d", n)
	}
	c := &Cluster{
		sim: s,
		net: nm,
		cfg: cfg.withDefaults(),
		f:   (n - 1) / 3,
	}
	for i := 0; i < n; i++ {
		r := &Replica{
			id:      i,
			addr:    nm.AddNode(region, 0),
			lastExe: -1,
			vcVotes: make(map[int]map[int]bool),
		}
		r.onBatch = func() { c.flushBatch(r) }
		r.onTimeout = func() { c.startViewChange(r) }
		c.replicas = append(c.replicas, r)
	}
	return c, nil
}

// F returns the fault tolerance.
func (c *Cluster) F() int { return c.f }

// Crash stops a replica (fail-silent).
func (c *Cluster) Crash(id int) {
	if id >= 0 && id < len(c.replicas) {
		c.replicas[id].crashed = true
		c.net.SetUp(c.replicas[id].addr, false)
	}
}

// Recover restarts a crashed replica: it rejoins with its log intact and
// fetches missed committed state from the most advanced live peer (the
// checkpoint/state-transfer mechanism, modelled as one bulk fetch).
func (c *Cluster) Recover(id int) {
	if id < 0 || id >= len(c.replicas) {
		return
	}
	r := c.replicas[id]
	r.crashed = false
	c.net.SetUp(r.addr, true)
	var donor *Replica
	for _, peer := range c.replicas {
		if peer == r || peer.crashed {
			continue
		}
		if donor == nil || peer.lastExe > donor.lastExe {
			donor = peer
		}
	}
	if donor == nil || donor.lastExe <= r.lastExe {
		return
	}
	size := 0
	for seq := r.lastExe + 1; seq <= donor.lastExe; seq++ {
		if inst := donor.instance(seq); inst != nil {
			size += reqSize*len(inst.batch) + 64
		}
	}
	c.send(c.message(stateTransfer, donor, r), size)
}

// onStateTransfer installs every instance the donor has executed beyond
// r's last execution, as they stand at delivery.
func (c *Cluster) onStateTransfer(r, from *Replica) {
	for seq := r.lastExe + 1; seq <= from.lastExe; seq++ {
		src := from.instance(seq)
		if src == nil || !src.executed {
			continue
		}
		inst := c.ensureInstance(r, seq, src.digest)
		inst.preprepared = true
		inst.batch = src.batch
		inst.committed = true
	}
	if r.view < from.view {
		r.view = from.view
	}
	c.tryExecute(r)
}

// MakeEquivocating marks a replica so that, as primary, it sends different
// batches to different replicas — the classic Byzantine primary. PBFT's
// prepare phase must prevent conflicting commits.
func (c *Cluster) MakeEquivocating(id int) {
	if id >= 0 && id < len(c.replicas) {
		c.replicas[id].byzantineMut = true
	}
}

// primary returns the primary for a view.
func (c *Cluster) primary(view int) *Replica {
	return c.replicas[view%len(c.replicas)]
}

// Submit hands a client request to the current primary.
func (c *Cluster) Submit(req Request) {
	// Clients track the view of a quorum: take the median view.
	p := c.primary(c.medianView())
	if p.crashed {
		// Client broadcasts to all on suspicion; replicas forward to the
		// primary and start progress timers (simplified: start timers).
		for _, r := range c.replicas {
			c.ensureProgressTimer(r)
		}
		return
	}
	p.pending = append(p.pending, req)
	for _, r := range c.replicas {
		c.ensureProgressTimer(r)
	}
	if len(p.pending) >= c.cfg.BatchSize {
		c.flushBatch(p)
		return
	}
	if !p.batchTimer.Scheduled() {
		p.batchTimer = c.sim.After(c.cfg.BatchTimeout, p.onBatch)
	}
}

func (c *Cluster) medianView() int {
	c.views = c.views[:0]
	for _, r := range c.replicas {
		c.views = append(c.views, r.view)
	}
	slices.Sort(c.views)
	return c.views[len(c.views)/2]
}

// flushBatch starts consensus on the primary's pending batch.
func (c *Cluster) flushBatch(p *Replica) {
	p.batchTimer.Cancel()
	if p.crashed || len(p.pending) == 0 || c.primary(p.view) != p {
		return
	}
	batch := p.pending
	p.pending = nil
	seq := p.nextSeq
	p.nextSeq++
	digest := batchDigest(p.view, seq, batch, 0)
	size := reqSize*len(batch) + 64
	for _, r := range c.replicas {
		if r == p {
			continue
		}
		m := c.message(prePrepare, p, r)
		m.view, m.seq, m.digest, m.batch = p.view, seq, digest, batch
		if p.byzantineMut && r.id%2 == 1 {
			// Equivocate: odd replicas get a different batch.
			m.digest = batchDigest(p.view, seq, batch, 1)
			m.batch = nil
		}
		c.send(m, size)
	}
	// The primary pre-prepares locally; its prepare vote is implicit in
	// the pre-prepare.
	c.onPrePrepare(p, p.view, seq, digest, batch)
}

func batchDigest(view, seq int, batch []Request, variant int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(view))
	mix(uint64(seq))
	mix(uint64(variant))
	for _, r := range batch {
		mix(uint64(r.ID))
	}
	return h
}

// instance returns the replica's instance for seq, or nil.
func (r *Replica) instance(seq int) *instance {
	if seq < len(r.log) {
		return r.log[seq]
	}
	return nil
}

func (c *Cluster) ensureInstance(r *Replica, seq int, digest uint64) *instance {
	if inst := r.instance(seq); inst != nil {
		return inst
	}
	inst := &instance{digest: digest}
	bits := inst.inline[:]
	if words := (len(c.replicas) + 63) / 64; words > 1 {
		bits = make([]uint64, 2*words)
	}
	w := len(bits) / 2
	inst.prepares.bits, inst.commits.bits = bits[:w:w], bits[w:]
	for len(r.log) <= seq {
		r.log = append(r.log, nil)
	}
	r.log[seq] = inst
	return inst
}

// message returns a message of the given kind from the free list,
// allocating (and binding its deliver func) only when the list is empty.
func (c *Cluster) message(k kind, from, to *Replica) *message {
	var m *message
	if last := len(c.free) - 1; last >= 0 {
		m, c.free = c.free[last], c.free[:last]
	} else {
		m = &message{c: c}
		m.deliver = m.handle
	}
	*m = message{c: c, kind: k, from: from, to: to, deliver: m.deliver}
	return m
}

// send transmits one protocol message and counts it; a message the
// transport refuses goes straight back to the free list, and one dropped in
// flight is left to the garbage collector. send needs no crash check of its
// own: Crash takes the replica's address down with it, so the transport
// drops a delivery to a crashed replica before deliver runs, and every
// handler re-checks crashed anyway.
func (c *Cluster) send(m *message, size int) {
	c.msgs++
	if !c.net.Send(m.from.addr, m.to.addr, size, m.deliver) {
		c.release(m)
	}
}

func (c *Cluster) release(m *message) {
	m.batch = nil
	c.free = append(c.free, m)
}

// handle dispatches a delivered message to its handler, then recycles it.
func (m *message) handle() {
	c := m.c
	switch m.kind {
	case prePrepare:
		c.onPrePrepare(m.to, m.view, m.seq, m.digest, m.batch)
	case prepare, commit:
		c.onVote(m.to, m.from.id, m.view, m.seq, m.digest, m.kind)
	case viewChange:
		c.onViewChange(m.to, m.from.id, m.view)
	case stateTransfer:
		c.onStateTransfer(m.to, m.from)
	}
	c.release(m)
}

// onPrePrepare handles the primary's proposal (including the primary's own
// local acceptance).
func (c *Cluster) onPrePrepare(r *Replica, view, seq int, digest uint64, batch []Request) {
	if r.crashed || view < r.view {
		return
	}
	inst := r.instance(seq)
	if inst != nil && inst.preprepared && inst.digest != digest {
		// Conflicting proposal for an accepted slot: ignore (and in full
		// PBFT, report). The first accepted pre-prepare wins this
		// replica's prepare vote.
		return
	}
	if inst != nil && inst.digest != digest {
		// Shell instance built from early votes of a different digest:
		// discard those votes and adopt the primary's proposal.
		inst.digest = digest
		inst.prepares.reset()
		inst.commits.reset()
	}
	inst = c.ensureInstance(r, seq, digest)
	inst.preprepared = true
	inst.batch = batch
	c.advance(r, view, seq, inst)
}

// advance fires any protocol transition the instance is now eligible for.
func (c *Cluster) advance(r *Replica, view, seq int, inst *instance) {
	if inst.preprepared && !inst.sentPrepare {
		inst.sentPrepare = true
		c.broadcastPhase(r, view, seq, inst.digest, prepare)
	}
	// prepared: pre-prepare + 2f matching prepares (own vote included).
	if inst.preprepared && inst.sentPrepare && !inst.sentCommit && inst.prepares.count >= 2*c.f {
		inst.sentCommit = true
		c.broadcastPhase(r, view, seq, inst.digest, commit)
	}
	// committed-local: prepared + 2f+1 commits.
	if inst.sentCommit && !inst.committed && inst.commits.count >= 2*c.f+1 {
		inst.committed = true
		c.tryExecute(r)
	}
}

// broadcastPhase sends PREPARE or COMMIT votes to all peers (including a
// self-delivery, applied synchronously).
func (c *Cluster) broadcastPhase(r *Replica, view, seq int, digest uint64, phase kind) {
	const voteSize = 96
	for _, peer := range c.replicas {
		if peer == r {
			c.onVote(r, r.id, view, seq, digest, phase)
			continue
		}
		m := c.message(phase, r, peer)
		m.view, m.seq, m.digest = view, seq, digest
		c.send(m, voteSize)
	}
}

// onVote processes a PREPARE or COMMIT vote at a replica.
func (c *Cluster) onVote(r *Replica, from, view, seq int, digest uint64, phase kind) {
	if r.crashed || view < r.view {
		return
	}
	// Votes arriving before the pre-prepare create a shell instance bound
	// to the digest; onPrePrepare upgrades it later.
	inst := c.ensureInstance(r, seq, digest)
	if inst.digest != digest {
		return
	}
	if phase == prepare {
		inst.prepares.add(from)
	} else {
		inst.commits.add(from)
	}
	c.advance(r, view, seq, inst)
}

// tryExecute runs committed instances in sequence order.
func (c *Cluster) tryExecute(r *Replica) {
	for {
		inst := r.instance(r.lastExe + 1)
		if inst == nil || !inst.committed || inst.executed {
			return
		}
		inst.executed = true
		r.lastExe++
		r.progressT.Cancel()
		r.progressT = sim.Handle{}
		if c.onExecute != nil {
			c.onExecute(r.id, r.lastExe, inst.batch)
		}
		// Count each request once, at its first execution anywhere.
		if r.id == c.firstExecutor() {
			now := c.sim.Now()
			for _, req := range inst.batch {
				c.committed++
				c.commitLatency = append(c.commitLatency, now-req.SubmittedAt)
			}
		}
	}
}

// firstExecutor returns the replica designated to account each executed
// request (the lowest-id live replica).
func (c *Cluster) firstExecutor() int {
	for _, r := range c.replicas {
		if !r.crashed {
			return r.id
		}
	}
	return 0
}

// ensureProgressTimer arms the view-change timer if not already pending.
func (c *Cluster) ensureProgressTimer(r *Replica) {
	if r.crashed || !r.progressT.IsZero() {
		return
	}
	r.progressT = c.sim.After(c.cfg.ViewChangeTimeout, r.onTimeout)
}

// startViewChange broadcasts a VIEW-CHANGE vote for the next view.
func (c *Cluster) startViewChange(r *Replica) {
	if r.crashed {
		return
	}
	next := r.view + 1
	const vcSize = 256
	for _, peer := range c.replicas {
		if peer == r {
			c.onViewChange(r, r.id, next)
			continue
		}
		m := c.message(viewChange, r, peer)
		m.view = next
		c.send(m, vcSize)
	}
}

// onViewChange tallies votes; 2f+1 votes move the replica into the new view.
func (c *Cluster) onViewChange(r *Replica, from, view int) {
	if r.crashed || view <= r.view {
		return
	}
	votes, ok := r.vcVotes[view]
	if !ok {
		votes = make(map[int]bool)
		r.vcVotes[view] = votes
	}
	votes[from] = true
	if len(votes) >= 2*c.f+1 {
		r.view = view
		r.progressT = sim.Handle{}
		c.viewChanges++
		if c.primary(view) == r {
			// New primary resumes after the highest sequence it knows (the
			// log is exactly that long) and re-proposes nothing (pending
			// requests are resubmitted by clients in this model).
			r.nextSeq = len(r.log)
		}
	}
}

// Errors for the throughput harness.
var errNotRun = errors.New("pbft: load run produced no commits")

// LoadStats summarizes a load run.
type LoadStats struct {
	TPS         float64
	MeanLatency time.Duration
	P99Latency  time.Duration
	MsgsPerReq  float64
}

// RunLoad drives the cluster with requests at the given rate for the given
// duration and reports throughput and latency.
func (c *Cluster) RunLoad(rate float64, duration time.Duration) (LoadStats, error) {
	if rate <= 0 || duration <= 0 {
		return LoadStats{}, errors.New("pbft: rate and duration must be positive")
	}
	offered := 0
	err := workload.StartPoisson(c.sim, c.sim.Stream("pbft.load"), rate, duration, func(id int) {
		c.Submit(Request{ID: id, SubmittedAt: c.sim.Now()})
		offered = id + 1
	})
	if err != nil {
		return LoadStats{}, err
	}
	if err := c.sim.RunUntil(duration + 10*time.Second); err != nil {
		return LoadStats{}, err
	}
	if c.committed == 0 {
		return LoadStats{}, errNotRun
	}
	st := LoadStats{TPS: float64(c.committed) / duration.Seconds()}
	st.MeanLatency, st.P99Latency = metrics.MeanP99(c.commitLatency)
	if offered > 0 {
		st.MsgsPerReq = float64(c.msgs) / float64(offered)
	}
	return st, nil
}
