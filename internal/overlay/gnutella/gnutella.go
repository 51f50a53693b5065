// Package gnutella implements an unstructured file-sharing overlay in the
// style of Gnutella 0.4: a flat random graph searched by TTL-limited query
// flooding.
//
// It underpins the paper's free-riding claim (E2, Adar & Huberman): with no
// incentive mechanism, most peers share nothing, the small sharing minority
// carries nearly all uploads, and every query floods the graph within its
// TTL.
//
// A query carries one callback pair, bound when it is issued, through
// netmodel's SendFrom: every copy and every hit is delivered to it with its
// endpoints, and a copy's TTL is recovered from its sender (the TTL the
// sender was visited with, minus one), so the flood allocates nothing per
// hop.
package gnutella

import (
	"errors"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Config parameterizes the overlay.
type Config struct {
	// TTL is the flood horizon in hops (default 7, the Gnutella default).
	TTL int
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 7
	}
	return c
}

const (
	// degree is the mean number of neighbours per node, roughly the
	// measured Gnutella mean.
	degree = 6
	// querySize and hitSize are message sizes in bytes.
	querySize, hitSize = 80, 120
	// queryTimeout bounds how long a query waits for the flood to die out.
	queryTimeout = 30 * time.Second
)

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
	shares  []map[int]bool
	uploads []int64
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
	for i := 0; i < n; i++ {
		nw.addrs[i] = nm.AddNode(netmodel.Europe, 0) // consecutive ids: see index
		nw.shares[i] = make(map[int]bool)
	}
	nw.build()
	return nw, nil
}

// build wires a connected random graph: a ring plus random chords, for a
// mean degree of about degree.
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
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	extra := (degree - 2) * n / 2
	for e := 0; e < extra; e++ {
		link(nw.rng.Intn(n), nw.rng.Intn(n))
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

type query struct {
	nw     *Network
	item   int
	origin int
	// ttlAt is the TTL each node was visited with, -1 until it is. A node
	// is visited once and forwards every copy with its TTL minus one, so a
	// copy's TTL is ttlAt[sender] - 1: no message carries it.
	ttlAt     []int32
	pending   int
	messages  int
	providers []int
	done      func(QueryResult)
	finished  bool
	timeout   sim.Handle
	// onQuery and onHit are bound once per query and receive every copy
	// of it and every hit.
	onQuery, onHit func(from, to netmodel.NodeID)
}

// Query floods a search for item from the origin node and calls done exactly
// once when the flood dies out (or the safety timeout fires).
func (nw *Network) Query(origin, item int, done func(QueryResult)) {
	q := &query{
		nw:     nw,
		item:   item,
		origin: origin,
		ttlAt:  make([]int32, len(nw.addrs)),
		done:   done,
	}
	for i := range q.ttlAt {
		q.ttlAt[i] = -1
	}
	q.onQuery, q.onHit = q.receiveQuery, q.receiveHit
	q.timeout = nw.sim.After(queryTimeout, q.finish)
	q.visit(origin, nw.cfg.TTL)
	q.settle()
}

// index maps a transport address back to its node. NewNetwork adds the
// overlay's nodes to the transport one after another, so their addresses
// are consecutive from addrs[0].
func (nw *Network) index(id netmodel.NodeID) int { return int(id - nw.addrs[0]) }

// visit processes the query arriving at a node with remaining TTL.
func (q *query) visit(node, ttl int) {
	if q.ttlAt[node] >= 0 {
		return
	}
	q.ttlAt[node] = int32(ttl)
	if q.nw.shares[node][q.item] {
		q.hit(node)
	}
	if ttl <= 0 {
		return
	}
	for _, nb := range q.nw.adj[node] {
		if q.ttlAt[nb] < 0 {
			q.send(node, nb)
		}
	}
}

// send forwards the query over one edge.
func (q *query) send(from, to int) {
	q.messages++
	q.pending++
	if !q.nw.net.SendFrom(q.nw.addrs[from], q.nw.addrs[to], querySize, q.onQuery) {
		q.pending--
	}
}

// receiveQuery is a copy of the query arriving over the edge from → to.
func (q *query) receiveQuery(from, to netmodel.NodeID) {
	q.pending--
	q.visit(q.nw.index(to), int(q.ttlAt[q.nw.index(from)])-1)
	q.settle()
}

// hit sends a query-hit from a sharing node back to the origin.
func (q *query) hit(provider int) {
	q.messages++
	q.pending++
	if !q.nw.net.SendFrom(q.nw.addrs[provider], q.nw.addrs[q.origin], hitSize, q.onHit) {
		q.pending--
	}
}

// receiveHit is a query-hit from provider reaching the origin.
func (q *query) receiveHit(provider, _ netmodel.NodeID) {
	q.pending--
	q.providers = append(q.providers, q.nw.index(provider))
	q.settle()
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
