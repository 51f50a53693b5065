// Package gnutella implements an unstructured file-sharing overlay in the
// style of Gnutella 0.4 (flat random graph, TTL-limited query flooding) and
// its superpeer successors (Kazaa/eDonkey-style two-tier topology).
//
// It underpins the paper's free-riding claim (E2, Adar & Huberman): with no
// incentive mechanism, most peers share nothing, the small sharing minority
// carries nearly all uploads, and the flood traffic per query is enormous
// compared to the two-tier design.
package gnutella

import (
	"errors"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Config parameterizes the overlay.
type Config struct {
	// Degree is the number of neighbours each flat-mode node links to
	// (default 6, roughly the measured Gnutella mean).
	Degree int
	// TTL is the flood horizon in hops (default 7, the Gnutella default).
	TTL int
	// QuerySize and HitSize are message sizes in bytes.
	QuerySize, HitSize int
	// Superpeer selects the two-tier topology.
	Superpeer bool
	// LeavesPerSuper is the leaf fan-in of each superpeer (default 30).
	LeavesPerSuper int
	// QueryTimeout bounds how long a query waits for the flood to die out.
	QueryTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Degree <= 0 {
		c.Degree = 6
	}
	if c.TTL <= 0 {
		c.TTL = 7
	}
	if c.QuerySize <= 0 {
		c.QuerySize = 80
	}
	if c.HitSize <= 0 {
		c.HitSize = 120
	}
	if c.LeavesPerSuper <= 0 {
		c.LeavesPerSuper = 30
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	return c
}

// QueryResult summarizes one flooded search.
type QueryResult struct {
	// Providers lists nodes that answered with a hit.
	Providers []int
	// Messages is the total query + hit messages generated.
	Messages int
	// Found reports whether any provider responded.
	Found bool
}

// Network is a simulated unstructured overlay.
type Network struct {
	sim *sim.Sim
	net *netmodel.Net
	cfg Config
	rng *sim.RNG

	addrs   []netmodel.NodeID
	adj     [][]int
	isSuper []bool
	superOf []int // leaf -> its superpeer (-1 in flat mode)
	shares  []map[int]bool
	uploads []int64
	built   bool
}

// NewNetwork creates an overlay with n nodes in the given region.
func NewNetwork(s *sim.Sim, nm *netmodel.Net, n int, cfg Config) (*Network, error) {
	if n < 3 {
		return nil, errors.New("gnutella: need at least three nodes")
	}
	nw := &Network{
		sim: s,
		net: nm,
		cfg: cfg.withDefaults(),
		rng: s.Stream("gnutella"),
	}
	nw.addrs = make([]netmodel.NodeID, n)
	nw.shares = make([]map[int]bool, n)
	nw.uploads = make([]int64, n)
	nw.adj = make([][]int, n)
	nw.superOf = make([]int, n)
	nw.isSuper = make([]bool, n)
	for i := 0; i < n; i++ {
		nw.addrs[i] = nm.AddNode(netmodel.Europe, 0)
		nw.shares[i] = make(map[int]bool)
		nw.superOf[i] = -1
	}
	nw.build()
	return nw, nil
}

// build wires the topology: a connected random graph in flat mode; a random
// graph among superpeers with leaves attached in two-tier mode.
func (nw *Network) build() {
	n := len(nw.addrs)
	link := func(a, b int) {
		if a == b {
			return
		}
		for _, x := range nw.adj[a] {
			if x == b {
				return
			}
		}
		nw.adj[a] = append(nw.adj[a], b)
		nw.adj[b] = append(nw.adj[b], a)
	}
	if !nw.cfg.Superpeer {
		// Ring + random chords: connected with ~Degree mean degree.
		for i := 0; i < n; i++ {
			link(i, (i+1)%n)
		}
		extra := (nw.cfg.Degree - 2) * n / 2
		for e := 0; e < extra; e++ {
			link(nw.rng.Intn(n), nw.rng.Intn(n))
		}
		return
	}
	superCount := (n + nw.cfg.LeavesPerSuper) / (nw.cfg.LeavesPerSuper + 1)
	if superCount < 2 {
		superCount = 2
	}
	for i := 0; i < superCount; i++ {
		nw.isSuper[i] = true
	}
	for i := 0; i < superCount; i++ {
		link(i, (i+1)%superCount)
	}
	extra := (nw.cfg.Degree - 2) * superCount / 2
	for e := 0; e < extra; e++ {
		link(nw.rng.Intn(superCount), nw.rng.Intn(superCount))
	}
	for i := superCount; i < n; i++ {
		nw.superOf[i] = nw.rng.Intn(superCount)
	}
}

// Share marks node i as sharing the given item.
func (nw *Network) Share(node, item int) { nw.shares[node][item] = true }

// UploadCounts returns a copy of all upload counters.
func (nw *Network) UploadCounts() []float64 {
	out := make([]float64, len(nw.uploads))
	for i, u := range nw.uploads {
		out[i] = float64(u)
	}
	return out
}

// RecordDownload attributes one upload to the given provider (called by the
// experiment after choosing among a query's providers).
func (nw *Network) RecordDownload(provider int) {
	if provider >= 0 && provider < len(nw.uploads) {
		nw.uploads[provider]++
	}
}

// holders reports whether node i can answer a query for item: in flat mode
// its own shares; in superpeer mode a superpeer also indexes its leaves.
func (nw *Network) holdersAt(node, item int) []int {
	var out []int
	if nw.shares[node][item] {
		out = append(out, node)
	}
	if nw.isSuper[node] {
		for leaf, sp := range nw.superOf {
			if sp == node && nw.shares[leaf][item] {
				out = append(out, leaf)
			}
		}
	}
	return out
}

type query struct {
	nw        *Network
	item      int
	origin    int
	seen      []bool
	pending   int
	messages  int
	providers []int
	provSeen  map[int]bool
	done      func(QueryResult)
	finished  bool
	timeout   sim.Handle
}

// Query floods a search for item from the origin node and calls done exactly
// once when the flood dies out (or the safety timeout fires).
func (nw *Network) Query(origin, item int, done func(QueryResult)) {
	q := &query{
		nw:       nw,
		item:     item,
		origin:   origin,
		seen:     make([]bool, len(nw.addrs)),
		provSeen: make(map[int]bool),
		done:     done,
	}
	q.timeout = nw.sim.After(nw.cfg.QueryTimeout, q.finish)

	start := origin
	if nw.cfg.Superpeer && !nw.isSuper[origin] {
		// Leaf forwards to its superpeer; the flood happens up there.
		sp := nw.superOf[origin]
		q.seen[origin] = true
		q.send(origin, sp, nw.cfg.TTL)
		q.settle()
		return
	}
	q.visit(start, nw.cfg.TTL)
	q.settle()
}

// visit processes the query arriving at a node with remaining TTL.
func (q *query) visit(node, ttl int) {
	if q.seen[node] {
		return
	}
	q.seen[node] = true
	for _, p := range q.nw.holdersAt(node, q.item) {
		if !q.provSeen[p] {
			q.provSeen[p] = true
			q.hit(node, p)
		}
	}
	if ttl <= 0 {
		return
	}
	for _, nb := range q.nw.adj[node] {
		if !q.seen[nb] {
			q.send(node, nb, ttl-1)
		}
	}
}

// send forwards the query over one edge.
func (q *query) send(from, to, ttl int) {
	q.messages++
	q.pending++
	ok := q.nw.net.Send(q.nw.addrs[from], q.nw.addrs[to], q.nw.cfg.QuerySize, func() {
		q.pending--
		q.visit(to, ttl)
		q.settle()
	})
	if !ok {
		q.pending--
	}
}

// hit sends a query-hit from the answering node back to the origin.
func (q *query) hit(at, provider int) {
	q.messages++
	q.pending++
	ok := q.nw.net.Send(q.nw.addrs[at], q.nw.addrs[q.origin], q.nw.cfg.HitSize, func() {
		q.pending--
		q.providers = append(q.providers, provider)
		q.settle()
	})
	if !ok {
		q.pending--
	}
}

// settle finishes the query once no messages remain in flight.
func (q *query) settle() {
	if !q.finished && q.pending == 0 {
		q.finish()
	}
}

func (q *query) finish() {
	if q.finished {
		return
	}
	q.finished = true
	q.timeout.Cancel()
	if q.done != nil {
		q.done(QueryResult{
			Providers: q.providers,
			Messages:  q.messages,
			Found:     len(q.providers) > 0,
		})
	}
}
