// Package chord implements the Chord structured overlay (Stoica et al.
// 2001): a 64-bit identifier ring with successor lists, finger tables and
// iterative greedy routing. The ring is built converged and repaired only by
// lookups dropping the dead pointers they meet; there is no stabilization
// protocol.
//
// It provides the multi-hop baseline for the paper's one-hop-vs-multi-hop
// comparison (E5): lookups take O(log n) hops.
package chord

import (
	"errors"
	"sort"
	"time"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

// FingerBits is the ring width in bits; fingers[i] targets self+2^i.
const FingerBits = 64

// Contact pairs a ring position with a network address.
type Contact struct {
	ID   uint64
	Addr netmodel.NodeID
}

// Config parameterizes a Chord deployment.
type Config struct {
	// RPCTimeout bounds each hop's wait for an answer.
	RPCTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	return c
}

const (
	// successorListLen is the replication factor of successor pointers; the
	// ring survives as long as one successor is alive.
	successorListLen = 8
	// reqSize and respSize are per-message byte sizes.
	reqSize, respSize = 40, 120
)

// Node is one Chord participant.
type Node struct {
	ID   uint64
	Addr netmodel.NodeID

	successors []Contact // ordered clockwise, length <= successorListLen
	fingers    [FingerBits]Contact
}

// Successor returns the node's first live successor pointer.
func (n *Node) Successor() Contact {
	if len(n.successors) == 0 {
		return Contact{ID: n.ID, Addr: n.Addr}
	}
	return n.successors[0]
}

// Result summarizes one lookup.
type Result struct {
	// Owner is the contact the lookup resolved to.
	Owner Contact
	// Hops is the number of routing hops taken (1 hop = 1 request).
	Hops int
	// Timeouts counts hops that had to be retried after a dead pointer.
	Timeouts int
	// Latency is virtual time from issue to resolution.
	Latency time.Duration
	// OK is false if routing failed entirely.
	OK bool
}

// Network is a simulated Chord ring.
type Network struct {
	sim *sim.Sim
	net *netmodel.Net
	cfg Config
	rng *sim.RNG

	nodes  []*Node
	byAddr map[netmodel.NodeID]*Node
}

// NewNetwork creates an empty ring.
func NewNetwork(s *sim.Sim, nm *netmodel.Net, cfg Config) *Network {
	return &Network{
		sim:    s,
		net:    nm,
		cfg:    cfg.withDefaults(),
		rng:    s.Stream("chord"),
		byAddr: make(map[netmodel.NodeID]*Node),
	}
}

// Nodes returns all nodes in creation order (shared slice; do not modify).
func (nw *Network) Nodes() []*Node { return nw.nodes }

// AddNode attaches a node with a random ring position in the given region.
func (nw *Network) AddNode(region netmodel.Region) *Node {
	n := &Node{
		ID:   nw.rng.Uint64(),
		Addr: nw.net.AddNode(region, 0),
	}
	nw.nodes = append(nw.nodes, n)
	nw.byAddr[n.Addr] = n
	return n
}

// Build constructs the converged ring: successor lists and finger tables set
// exactly as infinite stabilization would leave them. Subsequent churn is
// repaired by the protocol machinery.
func (nw *Network) Build() error {
	n := len(nw.nodes)
	if n < 2 {
		return errors.New("chord: need at least two nodes")
	}
	ring := make([]*Node, n)
	copy(ring, nw.nodes)
	sort.Slice(ring, func(i, j int) bool { return ring[i].ID < ring[j].ID })
	for i, node := range ring {
		node.successors = node.successors[:0]
		for j := 1; j <= successorListLen && j < n; j++ {
			s := ring[(i+j)%n]
			node.successors = append(node.successors, Contact{ID: s.ID, Addr: s.Addr})
		}
		for b := 0; b < FingerBits; b++ {
			start := node.ID + 1<<uint(b)
			s := successorOf(ring, start)
			node.fingers[b] = Contact{ID: s.ID, Addr: s.Addr}
		}
	}
	return nil
}

// successorOf returns the first node clockwise from key in the sorted ring.
func successorOf(ring []*Node, key uint64) *Node {
	idx := sort.Search(len(ring), func(i int) bool { return ring[i].ID >= key })
	if idx == len(ring) {
		idx = 0
	}
	return ring[idx]
}

// SetOnline attaches or detaches a node (churn transition). The transport
// owns the state, and its Up reads it back.
func (nw *Network) SetOnline(n *Node, online bool) {
	nw.net.SetUp(n.Addr, online)
}

// rpc sends a request and reports the peer (by direct reference — payload
// contents are modelled, not serialized), or ok=false on timeout — peer is
// then whatever the request found and must not be read. The transport
// delivers a request only to a node that is up, so serve needs no check.
func (nw *Network) rpc(from *Node, to netmodel.NodeID, onDone func(peer *Node, ok bool)) {
	var peer *Node
	nw.net.Call(from.Addr, to, reqSize, respSize, nw.cfg.RPCTimeout,
		func() bool {
			peer = nw.byAddr[to]
			return peer != nil
		},
		func(ok, _ bool) { onDone(peer, ok) })
}

// Lookup routes iteratively from origin to the owner of key, invoking done
// exactly once. The final hop verifies the owner answers, so OK results
// always denote a live owner.
func (nw *Network) Lookup(origin *Node, key uint64, done func(Result)) {
	l := &chordLookup{
		nw:     nw,
		origin: origin,
		key:    key,
		start:  nw.sim.Now(),
		done:   done,
	}
	if !nw.net.Up(origin.Addr) {
		l.finish(Contact{}, false)
		return
	}
	l.visit(origin)
}

type chordLookup struct {
	nw       *Network
	origin   *Node
	key      uint64
	hops     int
	timeouts int
	start    time.Duration
	done     func(Result)
	finished bool
}

const maxHops = 64

// visit runs the routing step using node's pointers (the origin has just
// learned them, either locally or from the preceding hop's reply).
func (l *chordLookup) visit(node *Node) {
	if l.finished {
		return
	}
	if l.hops > maxHops {
		l.finish(Contact{}, false)
		return
	}
	succ := node.Successor()
	if succ.Addr == node.Addr {
		// Degenerate state (successor list exhausted): treat the node
		// itself as owner if it is the origin, otherwise fail.
		l.finish(Contact{ID: node.ID, Addr: node.Addr}, l.nw.net.Up(node.Addr))
		return
	}
	if overlay.RingBetween(node.ID, l.key, succ.ID) {
		// The key falls between this node and its successor: verify the
		// owner answers before declaring success.
		l.hops++
		l.nw.rpc(l.origin, succ.Addr, func(peer *Node, ok bool) {
			if l.finished {
				return
			}
			if !ok {
				l.timeouts++
				removeContact(node, succ.ID)
				l.visit(node)
				return
			}
			l.finish(Contact{ID: peer.ID, Addr: peer.Addr}, true)
		})
		return
	}
	next := closestPreceding(node, l.key)
	if next.Addr == node.Addr {
		l.finish(succ, false)
		return
	}
	l.hop(next, node)
}

// hop queries next remotely; on timeout it retries via the current node's
// next-best pointer.
func (l *chordLookup) hop(next Contact, from *Node) {
	l.hops++
	l.nw.rpc(l.origin, next.Addr, func(peer *Node, ok bool) {
		if l.finished {
			return
		}
		if !ok {
			l.timeouts++
			// Drop the dead pointer from the holder's state and retry.
			removeContact(from, next.ID)
			l.visit(from)
			return
		}
		l.visit(peer)
	})
}

func (l *chordLookup) finish(owner Contact, ok bool) {
	if l.finished {
		return
	}
	l.finished = true
	if l.done != nil {
		l.done(Result{
			Owner:    owner,
			Hops:     l.hops,
			Timeouts: l.timeouts,
			Latency:  l.nw.sim.Now() - l.start,
			OK:       ok,
		})
	}
}

// closestPreceding returns the live-believed pointer most closely preceding
// key among the node's fingers and successors (standard Chord routing).
func closestPreceding(n *Node, key uint64) Contact {
	best := Contact{ID: n.ID, Addr: n.Addr}
	consider := func(c Contact) {
		if c.Addr == n.Addr {
			return
		}
		if overlay.RingBetween(n.ID, c.ID, key) && overlay.RingBetween(best.ID, c.ID, key) {
			best = c
		}
	}
	for i := FingerBits - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, c := range n.successors {
		consider(c)
	}
	return best
}

// removeContact erases a dead pointer from fingers and successor list.
func removeContact(n *Node, id uint64) {
	for i := range n.fingers {
		if n.fingers[i].ID == id {
			n.fingers[i] = Contact{ID: n.ID, Addr: n.Addr}
		}
	}
	for i := 0; i < len(n.successors); {
		if n.successors[i].ID == id {
			n.successors = append(n.successors[:i], n.successors[i+1:]...)
		} else {
			i++
		}
	}
}

// OwnerOf returns the ground-truth current owner of key among online nodes.
func (nw *Network) OwnerOf(key uint64) *Node {
	var ring []*Node
	for _, n := range nw.nodes {
		if nw.net.Up(n.Addr) {
			ring = append(ring, n)
		}
	}
	if len(ring) == 0 {
		return nil
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].ID < ring[j].ID })
	return successorOf(ring, key)
}
