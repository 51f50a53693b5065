// Package onehop implements a full-membership, one-hop overlay in the style
// of Gupta, Liskov and Rodrigues ("One Hop Lookups for Peer-to-Peer
// Overlays", HotOS 2003): every node knows every other node, lookups are a
// single direct RPC, and the price is disseminating every membership event
// to the whole network through a slice/unit aggregation hierarchy.
//
// The package supports the paper's E5 claim — for 10k–100k reasonably stable
// nodes, full membership with one-hop routing is feasible and preferable to
// multi-hop overlays — with two components:
//
//   - a message-level lookup simulation in which each node routes on a view
//     of membership that lags reality by the dissemination delay, so lookups
//     to recently departed nodes time out and retry (the real failure mode
//     of one-hop designs under churn); and
//
//   - an analytic maintenance-bandwidth model of the dissemination
//     hierarchy, driven by the same churn parameters, reproducing the
//     "is it feasible?" arithmetic of the original paper.
package onehop

import (
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Config parameterizes the lookup-path simulation.
type Config struct {
	// ViewLag is how long a membership event takes to reach all nodes
	// (Gupta et al. report tens of seconds for their hierarchy).
	ViewLag time.Duration
	// RPCTimeout bounds each attempt.
	RPCTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.ViewLag <= 0 {
		c.ViewLag = 30 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	return c
}

const (
	// reqSize and respSize are per-message byte sizes.
	reqSize, respSize = 40, 120
	// maxAttempts bounds retries through the believed successor list.
	maxAttempts = 4
)

// Node is one participant.
type Node struct {
	ID   uint64
	Addr netmodel.NodeID

	online     bool
	prevOnline bool
	lastChange time.Duration
}

// Result summarizes one lookup.
type Result struct {
	// Owner is the node that finally answered.
	Owner netmodel.NodeID
	// Attempts is the number of RPCs issued (1 = clean one-hop).
	Attempts int
	// Latency is virtual time from issue to answer.
	Latency time.Duration
	// OK reports whether any attempt succeeded.
	OK bool
}

// Network is a one-hop overlay simulation.
type Network struct {
	sim *sim.Sim
	net *netmodel.Net
	cfg Config
	rng *sim.RNG

	nodes  []*Node // sorted by ID after Build
	byAddr map[netmodel.NodeID]*Node
	built  bool
}

// NewNetwork creates an empty overlay.
func NewNetwork(s *sim.Sim, nm *netmodel.Net, cfg Config) *Network {
	return &Network{
		sim:    s,
		net:    nm,
		cfg:    cfg.withDefaults(),
		rng:    s.Stream("onehop"),
		byAddr: make(map[netmodel.NodeID]*Node),
	}
}

// Nodes returns all nodes (sorted by ring id after Build; shared slice).
func (nw *Network) Nodes() []*Node { return nw.nodes }

// AddNode attaches a node with a random ring position.
func (nw *Network) AddNode(region netmodel.Region) *Node {
	n := &Node{
		ID:   nw.rng.Uint64(),
		Addr: nw.net.AddNode(region, 0),
		// Nodes start online and their membership is "old news": views
		// already reflect it.
		online:     true,
		prevOnline: true,
	}
	nw.nodes = append(nw.nodes, n)
	nw.byAddr[n.Addr] = n
	return n
}

// Build finalizes membership (sorts the ring). Call once after adding nodes.
func (nw *Network) Build() error {
	if len(nw.nodes) < 2 {
		return errors.New("onehop: need at least two nodes")
	}
	sort.Slice(nw.nodes, func(i, j int) bool { return nw.nodes[i].ID < nw.nodes[j].ID })
	nw.built = true
	return nil
}

// SetOnline records a membership transition. The new state becomes visible
// to other nodes' views only after Config.ViewLag.
func (nw *Network) SetOnline(n *Node, online bool) {
	if n.online == online {
		return
	}
	n.prevOnline = n.online
	n.online = online
	n.lastChange = nw.sim.Now()
	nw.net.SetUp(n.Addr, online)
}

// believedOnline reports the state of x as seen by a node whose view lags
// reality by the dissemination delay.
func (nw *Network) believedOnline(x *Node) bool {
	if nw.sim.Now()-x.lastChange >= nw.cfg.ViewLag {
		return x.online
	}
	return x.prevOnline
}

// believedSuccessors returns up to k nodes clockwise from key believed
// online by the observer's (lagged) view.
func (nw *Network) believedSuccessors(key uint64, k int) []*Node {
	n := len(nw.nodes)
	idx := sort.Search(n, func(i int) bool { return nw.nodes[i].ID >= key })
	out := make([]*Node, 0, k)
	for off := 0; off < n && len(out) < k; off++ {
		cand := nw.nodes[(idx+off)%n]
		if nw.believedOnline(cand) {
			out = append(out, cand)
		}
	}
	return out
}

// OwnerOf returns the true current owner of key among online nodes, or nil
// if no node is online.
func (nw *Network) OwnerOf(key uint64) *Node {
	n := len(nw.nodes)
	idx := sort.Search(n, func(i int) bool { return nw.nodes[i].ID >= key })
	for off := 0; off < n; off++ {
		cand := nw.nodes[(idx+off)%n]
		if cand.online {
			return cand
		}
	}
	return nil
}

// Lookup issues a one-hop lookup from origin for key, retrying through the
// believed successor list on timeout, and invokes done exactly once.
func (nw *Network) Lookup(origin *Node, key uint64, done func(Result)) {
	if !nw.built || !origin.online {
		if done != nil {
			done(Result{})
		}
		return
	}
	cands := nw.believedSuccessors(key, maxAttempts)
	start := nw.sim.Now()
	var attempt func(i int)
	attempt = func(i int) {
		if i >= len(cands) {
			if done != nil {
				done(Result{Attempts: i, Latency: nw.sim.Now() - start})
			}
			return
		}
		target := cands[i]
		nw.net.Call(origin.Addr, target.Addr, reqSize, respSize, nw.cfg.RPCTimeout,
			func() bool {
				peer, ok := nw.byAddr[target.Addr]
				return ok && peer.online
			},
			func(ok bool) {
				if !ok {
					attempt(i + 1)
					return
				}
				if done != nil {
					done(Result{
						Owner:    target.Addr,
						Attempts: i + 1,
						Latency:  nw.sim.Now() - start,
						OK:       true,
					})
				}
			})
	}
	attempt(0)
}

// MaintenanceParams feeds the analytic dissemination-bandwidth model.
type MaintenanceParams struct {
	// N is the network size.
	N int
	// MeanSession and MeanGap define the churn process; each full cycle
	// produces two membership events (join and leave).
	MeanSession, MeanGap time.Duration
}

const (
	// eventBytes is the wire size of one membership event record: id,
	// address, type and timestamp.
	eventBytes = 20
	// overhead multiplies raw event traffic for headers, acks and
	// keep-alives.
	overhead = 1.5
)

// sqrtN is both the number of ring slices and the number of nodes per unit.
func (p MaintenanceParams) sqrtN() int {
	return max(int(math.Sqrt(float64(p.N))), 1)
}

// EventRate returns network-wide membership events per second: every node
// cycles through one session and one gap, producing two events per cycle.
func (p MaintenanceParams) EventRate() float64 {
	cycle := (p.MeanSession + p.MeanGap).Seconds()
	if cycle <= 0 || p.N <= 0 {
		return 0
	}
	return 2 * float64(p.N) / cycle
}

// OrdinaryBps returns the downstream bandwidth (bits/second) an ordinary
// node spends on membership maintenance: it must receive every event in the
// network exactly once, plus protocol overhead.
func (p MaintenanceParams) OrdinaryBps() float64 {
	return p.EventRate() * eventBytes * 8 * overhead
}

// SliceLeaderBps returns the bandwidth of a slice leader, which aggregates
// its slice's events, exchanges aggregates with the other slice leaders, and
// fans the full event stream out to the unit leaders in its slice.
func (p MaintenanceParams) SliceLeaderBps() float64 {
	slices := p.sqrtN()
	r := p.EventRate()
	perSlice := r / float64(slices)
	unitsPerSlice := math.Ceil(float64(p.N) / float64(slices) / float64(slices))
	// Receive own slice's events + all other slices' aggregates, then send
	// the full stream to each unit leader in the slice.
	recv := perSlice + (r - perSlice)
	send := perSlice*float64(slices-1) + r*unitsPerSlice
	return (recv + send) * eventBytes * 8 * overhead
}

// UnitLeaderBps returns the bandwidth of a unit leader, which receives the
// full stream from its slice leader and pipes it to its two ring neighbours
// (events then piggyback around the unit on keep-alives).
func (p MaintenanceParams) UnitLeaderBps() float64 {
	r := p.EventRate()
	return r * eventBytes * 8 * overhead * 3 // receive + 2 neighbours
}

// StaleLookupProbability returns the probability that a one-hop lookup hits
// a node that departed within the view lag: the fraction of nodes whose
// state changed in the last ViewLag seconds, scaled by the chance the
// believed owner is affected.
func StaleLookupProbability(p MaintenanceParams, viewLag time.Duration) float64 {
	cycle := (p.MeanSession + p.MeanGap).Seconds()
	if cycle <= 0 {
		return 0
	}
	frac := 2 * viewLag.Seconds() / cycle
	if frac > 1 {
		frac = 1
	}
	return frac
}
