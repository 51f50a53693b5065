// Package offchain models layer-2 payment-channel networks (Lightning-style),
// the scaling response the paper discusses in §III-C Problem 2: "the
// so-called layer 2 or off-chain solutions … follow this trend [toward more
// centralized designs]: transactions are processed by a much smaller set of
// peers to increase performance."
//
// The model captures both halves of that sentence: payment channels multiply
// effective throughput (only opens, closes and disputes touch the chain),
// and economically-routed payments concentrate onto a small set of
// well-capitalized hubs, re-centralizing the topology.
package offchain

import (
	"errors"
	"math"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Channel is one bidirectional payment channel.
type Channel struct {
	// A and B are the endpoints; BalanceA/BalanceB their current sides of
	// the channel capacity.
	A, B               int
	BalanceA, BalanceB float64
}

// balance returns node's side of the channel (0 if node is not a member).
func (c *Channel) balance(node int) float64 {
	switch node {
	case c.A:
		return c.BalanceA
	case c.B:
		return c.BalanceB
	default:
		return 0
	}
}

// shift moves amt from `from`'s side to the other side.
func (c *Channel) shift(from int, amt float64) {
	if from == c.A {
		c.BalanceA -= amt
		c.BalanceB += amt
	} else {
		c.BalanceB -= amt
		c.BalanceA += amt
	}
}

// other returns the counterparty of node.
func (c *Channel) other(node int) int {
	if node == c.A {
		return c.B
	}
	return c.A
}

// Network is a payment-channel network.
type Network struct {
	n        int
	channels []*Channel
	adj      [][]int // node -> channel indices

	// on-chain accounting: opens and closes are layer-1 transactions.
	chainTxs int
	payments int
	// routedVia counts payments forwarded through each node (hub load).
	routedVia []int64

	// WAN transport (AttachTransport): HTLC messages ride the shared
	// netmodel and end-to-end payment latency is sampled.
	net     *netmodel.Net
	addrs   []netmodel.NodeID
	latency metrics.Sample

	// route's scratch, reused across Pay calls.
	dist, prevCh []int
	queue        routeQueue
	path         []int
}

// htlcMsgSize is the modelled wire size of one HTLC message (an
// update_add_htlc with its routing onion is ~1.4 KB in Lightning).
const htlcMsgSize = 1400

// AttachTransport routes payment traffic over the shared WAN transport:
// node i maps to addrs[i]. Subsequent Pay calls put each hop's forward and
// settle HTLC messages on the Net (loss and partitions included) and
// record the resulting end-to-end latency, retrievable via
// PaymentLatencies.
func (nw *Network) AttachTransport(nm *netmodel.Net, addrs []netmodel.NodeID) error {
	if nm == nil {
		return errors.New("offchain: nil transport")
	}
	if len(addrs) != nw.n {
		return errors.New("offchain: need one address per node")
	}
	seen := make(map[netmodel.NodeID]bool, len(addrs))
	for _, a := range addrs {
		if a < 0 || int(a) >= nm.Size() {
			return errors.New("offchain: address not attached to the transport")
		}
		if seen[a] {
			return errors.New("offchain: duplicate node address")
		}
		seen[a] = true
	}
	nw.net = nm
	nw.addrs = append([]netmodel.NodeID(nil), addrs...)
	return nil
}

// PaymentLatencies returns the sample of end-to-end payment latencies in
// seconds, populated only when a transport is attached.
func (nw *Network) PaymentLatencies() *metrics.Sample { return &nw.latency }

// htlcRetryCap bounds per-message retransmissions when the transport drops
// an HTLC message; payments whose messages never get through within the
// cap are excluded from the latency sample rather than recorded with a
// misleadingly small delay.
const htlcRetryCap = 10

// chargeHops accounts a completed payment's HTLC traffic on the transport:
// a forward message per hop along the path and a settle message per hop
// back, the sum being the payment's end-to-end latency. A message the
// transport drops (loss) is retried after the shared retry delay — channel
// state is already final by the time this runs; Lightning retransmits the
// message, it does not unwind the HTLC — so a lossier WAN makes payments
// slower, never faster. If a message exhausts the retry cap (a partition,
// or extreme loss), no latency sample is recorded for the payment.
func (nw *Network) chargeHops(src int, path []int) {
	var total time.Duration
	msg := func(a, b int) bool {
		for try := 0; try < htlcRetryCap; try++ {
			if d, ok := nw.net.Transfer(nw.addrs[a], nw.addrs[b], htlcMsgSize); ok {
				total += d
				return true
			}
			total += netmodel.DefaultRetryDelay
		}
		return false
	}
	cur := src
	for _, chIdx := range path {
		next := nw.channels[chIdx].other(cur)
		if !msg(cur, next) || !msg(next, cur) {
			return
		}
		cur = next
	}
	nw.latency.Add(total.Seconds())
}

// NewNetwork creates an empty network over n nodes.
func NewNetwork(n int) (*Network, error) {
	if n < 2 {
		return nil, errors.New("offchain: need at least two nodes")
	}
	return &Network{
		n:         n,
		adj:       make([][]int, n),
		routedVia: make([]int64, n),
		dist:      make([]int, n),
		prevCh:    make([]int, n),
	}, nil
}

// OpenChannel locks capacity/2 on each side between a and b; it costs one
// on-chain transaction.
func (nw *Network) OpenChannel(a, b int, capacity float64) (*Channel, error) {
	if a == b || a < 0 || b < 0 || a >= nw.n || b >= nw.n {
		return nil, errors.New("offchain: invalid endpoints")
	}
	if capacity <= 0 {
		return nil, errors.New("offchain: capacity must be positive")
	}
	c := &Channel{A: a, B: b, BalanceA: capacity / 2, BalanceB: capacity / 2}
	idx := len(nw.channels)
	nw.channels = append(nw.channels, c)
	nw.adj[a] = append(nw.adj[a], idx)
	nw.adj[b] = append(nw.adj[b], idx)
	nw.chainTxs++
	return c, nil
}

// CloseAll settles every channel on-chain (one transaction each) and
// returns the number of on-chain transactions the network consumed in
// total.
func (nw *Network) CloseAll() int {
	nw.chainTxs += len(nw.channels)
	nw.channels = nil
	for i := range nw.adj {
		nw.adj[i] = nil
	}
	return nw.chainTxs
}

// Payments returns successful off-chain payments routed.
func (nw *Network) Payments() int { return nw.payments }

// HubConcentration summarizes routing centralization: the share of
// forwarding handled by the top-k intermediaries and the Gini coefficient.
func (nw *Network) HubConcentration(k int) (topK, gini float64) {
	shares := make([]float64, len(nw.routedVia))
	for i, v := range nw.routedVia {
		shares[i] = float64(v)
	}
	return metrics.TopShare(shares, k), metrics.Gini(shares)
}

// Pay routes amt from src to dst through the cheapest feasible path
// (Dijkstra over hop count; each hop must have amt of directed liquidity).
// On success it updates channel balances and forwarding counters.
func (nw *Network) Pay(src, dst int, amt float64) bool {
	if src == dst || src < 0 || dst < 0 || src >= nw.n || dst >= nw.n || amt <= 0 {
		return false
	}
	path := nw.route(src, dst, amt)
	if path == nil {
		return false
	}
	cur := src
	for _, chIdx := range path {
		ch := nw.channels[chIdx]
		ch.shift(cur, amt)
		next := ch.other(cur)
		if next != dst {
			nw.routedVia[next]++
		}
		cur = next
	}
	nw.payments++
	if nw.net != nil {
		nw.chargeHops(src, path)
	}
	return true
}

type pqItem struct {
	node int
	dist int
}

// routeQueue is a binary min-heap on dist. Hop counts tie constantly and the
// order tied items pop in decides which equal-hop path a payment takes, so
// push and pop make exactly container/heap's moves (swap root with last, sift
// down; strict <; right child only when strictly smaller): E18's bytes pin them.
type routeQueue []pqItem

func (q *routeQueue) push(it pqItem) {
	h := append(*q, it)
	*q = h
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *routeQueue) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i, j := 0, 1; j < n; j = 2*i + 1 {
		if r := j + 1; r < n && h[r].dist < h[j].dist {
			j = r
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// route finds a min-hop path with per-hop liquidity >= amt: its channel indices
// from src to dst, valid until the next route call, or nil when there is none.
func (nw *Network) route(src, dst int, amt float64) []int {
	const inf = math.MaxInt32
	dist, prevCh := nw.dist, nw.prevCh
	for i := range dist {
		dist[i] = inf
		prevCh[i] = -1
	}
	dist[src] = 0
	nw.queue = append(nw.queue[:0], pqItem{node: src})
	for len(nw.queue) > 0 {
		it := nw.queue.pop()
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, chIdx := range nw.adj[it.node] {
			ch := nw.channels[chIdx]
			if ch.balance(it.node) < amt {
				continue // not enough directed liquidity
			}
			next := ch.other(it.node)
			if d := it.dist + 1; d < dist[next] {
				dist[next] = d
				prevCh[next] = chIdx
				nw.queue.push(pqItem{node: next, dist: d})
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	// Rebuild the path channel list from dst back to src, then reverse it.
	path := nw.path[:0]
	for cur := dst; cur != src; {
		chIdx := prevCh[cur]
		if chIdx < 0 {
			return nil
		}
		path = append(path, chIdx)
		cur = nw.channels[chIdx].other(cur)
	}
	slices.Reverse(path)
	nw.path = path
	return path
}

// Topology builders for the two deployment shapes the paper contrasts.

// BuildHubTopology wires everyone to k hubs with large capacity — the shape
// economically-routed networks converge to.
func BuildHubTopology(nw *Network, hubs int, hubCapacity float64) error {
	if hubs < 1 || hubs >= nw.n {
		return errors.New("offchain: invalid hub count")
	}
	// Hubs interconnect fully.
	for i := 0; i < hubs; i++ {
		for j := i + 1; j < hubs; j++ {
			if _, err := nw.OpenChannel(i, j, hubCapacity*4); err != nil {
				return err
			}
		}
	}
	for i := hubs; i < nw.n; i++ {
		if _, err := nw.OpenChannel(i, i%hubs, hubCapacity); err != nil {
			return err
		}
	}
	return nil
}

// BuildMeshTopology wires a ring plus random chords with uniform capacity —
// the decentralized ideal.
func BuildMeshTopology(g *sim.RNG, nw *Network, degree int, capacity float64) error {
	if degree < 2 {
		return errors.New("offchain: degree must be >= 2")
	}
	for i := 0; i < nw.n; i++ {
		if _, err := nw.OpenChannel(i, (i+1)%nw.n, capacity); err != nil {
			return err
		}
	}
	extra := (degree - 2) * nw.n / 2
	for e := 0; e < extra; e++ {
		a, b := g.Intn(nw.n), g.Intn(nw.n)
		if a != b {
			// Duplicate channels are allowed; they just add liquidity.
			if _, err := nw.OpenChannel(a, b, capacity); err != nil {
				return err
			}
		}
	}
	return nil
}

// EffectiveTPSMultiplier returns how many payments the network settled per
// on-chain transaction consumed — the layer-2 throughput story.
func (nw *Network) EffectiveTPSMultiplier() float64 {
	if nw.chainTxs == 0 {
		return 0
	}
	return float64(nw.payments) / float64(nw.chainTxs)
}
