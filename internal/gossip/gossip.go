// Package gossip implements epidemic broadcast over a random peer graph —
// the dissemination layer of both permissionless blockchains (transaction
// and block relay in Bitcoin/Ethereum) and permissioned ones (Fabric's
// gossip component).
//
// Its central output for the reproduction is the block-propagation delay
// distribution: the fork-rate experiments (E8) feed on the time a block of a
// given size takes to reach the rest of the mining power.
package gossip

import (
	"errors"
	"time"

	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Config parameterizes the gossip overlay.
type Config struct {
	// Degree is the number of links per node (default 8, Bitcoin's default
	// outbound connection count).
	Degree int
	// Fanout is how many neighbours a node relays a fresh message to
	// (0 = all neighbours, i.e. flooding, which is what Bitcoin does for
	// blocks).
	Fanout int
	// BroadcastTimeout bounds how long a broadcast is tracked.
	BroadcastTimeout time.Duration
	// RoundPacing spaces out MeasurePropagation's broadcast rounds so they
	// do not overlap in flight (default: the shared transport pacing,
	// netmodel.DefaultPacing).
	RoundPacing time.Duration
}

func (c Config) withDefaults() Config {
	if c.Degree <= 0 {
		c.Degree = 8
	}
	if c.BroadcastTimeout <= 0 {
		c.BroadcastTimeout = 5 * time.Minute
	}
	if c.RoundPacing <= 0 {
		c.RoundPacing = netmodel.DefaultPacing
	}
	return c
}

// Spread reports the outcome of one broadcast.
type Spread struct {
	// Delivered is the number of nodes reached (including the origin).
	Delivered int
	// Messages is the number of point-to-point transmissions used.
	Messages int
	// DeliveryTimes holds per-node delivery latencies from the broadcast
	// start (origin excluded).
	DeliveryTimes []time.Duration
}

// Coverage returns the fraction of the network reached.
func (sp *Spread) Coverage(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(sp.Delivered) / float64(n)
}

// Percentile returns the given delivery-time percentile.
func (sp *Spread) Percentile(p float64) time.Duration {
	if len(sp.DeliveryTimes) == 0 {
		return 0
	}
	var sample metrics.Sample
	for _, d := range sp.DeliveryTimes {
		sample.Add(float64(d))
	}
	return time.Duration(sample.Percentile(p))
}

// Network is a gossip overlay over a netmodel.Net.
type Network struct {
	sim *sim.Sim
	net *netmodel.Net
	cfg Config
	rng *sim.RNG

	addrs []netmodel.NodeID
	adj   [][]int
}

// NewNetwork creates a gossip overlay of n nodes spread round-robin over the
// given regions (defaulting to a globally distributed population), each with
// the given uplink bandwidth in bits/second (0 = unconstrained).
func NewNetwork(s *sim.Sim, nm *netmodel.Net, n int, uplinkBps float64, regions []netmodel.Region, cfg Config) (*Network, error) {
	if n < 3 {
		return nil, errors.New("gossip: need at least three nodes")
	}
	if len(regions) == 0 {
		regions = []netmodel.Region{
			netmodel.NorthAmerica, netmodel.Europe, netmodel.Asia,
			netmodel.Europe, netmodel.NorthAmerica, netmodel.Asia,
			netmodel.SouthAmerica, netmodel.Oceania,
		}
	}
	nw := &Network{
		sim: s,
		net: nm,
		cfg: cfg.withDefaults(),
		rng: s.Stream("gossip"),
	}
	nw.addrs = make([]netmodel.NodeID, n)
	nw.adj = make([][]int, n)
	for i := 0; i < n; i++ {
		nw.addrs[i] = nm.AddNode(regions[i%len(regions)], uplinkBps)
	}
	// Connected random graph: ring + random chords up to Degree.
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
	extra := (nw.cfg.Degree - 2) * n / 2
	for e := 0; e < extra; e++ {
		link(nw.rng.Intn(n), nw.rng.Intn(n))
	}
	return nw, nil
}

// Size returns the node count.
func (nw *Network) Size() int { return len(nw.addrs) }

// Degree returns node i's neighbour count.
func (nw *Network) Degree(i int) int {
	if i < 0 || i >= len(nw.adj) {
		return 0
	}
	return len(nw.adj[i])
}

// Broadcast floods a message of the given size from origin and invokes done
// exactly once when the epidemic dies out (or the safety timeout fires).
func (nw *Network) Broadcast(origin, size int, done func(*Spread)) {
	if origin < 0 || origin >= len(nw.addrs) {
		if done != nil {
			done(&Spread{})
		}
		return
	}
	b := &broadcast{
		nw:    nw,
		size:  size,
		seen:  make([]bool, len(nw.addrs)),
		start: nw.sim.Now(),
		done:  done,
	}
	b.timeout = nw.sim.After(nw.cfg.BroadcastTimeout, b.finish)
	b.visit(origin)
	b.settle()
}

type broadcast struct {
	nw       *Network
	size     int
	seen     []bool
	spread   Spread
	pending  int
	start    time.Duration
	done     func(*Spread)
	finished bool
	timeout  sim.Handle
}

func (b *broadcast) visit(node int) {
	if b.seen[node] {
		return
	}
	b.seen[node] = true
	b.spread.Delivered++
	if b.spread.Delivered > 1 {
		b.spread.DeliveryTimes = append(b.spread.DeliveryTimes, b.nw.sim.Now()-b.start)
	}
	targets := b.nw.adj[node]
	if f := b.nw.cfg.Fanout; f > 0 && f < len(targets) {
		perm := b.nw.rng.Perm(len(targets))
		chosen := make([]int, 0, f)
		for _, p := range perm[:f] {
			chosen = append(chosen, targets[p])
		}
		targets = chosen
	}
	for _, nb := range targets {
		if b.seen[nb] {
			continue
		}
		b.spread.Messages++
		b.pending++
		nb := nb
		ok := b.nw.net.Send(b.nw.addrs[node], b.nw.addrs[nb], b.size, func() {
			b.pending--
			b.visit(nb)
			b.settle()
		})
		if !ok {
			b.pending--
		}
	}
}

func (b *broadcast) settle() {
	if !b.finished && b.pending == 0 {
		b.finish()
	}
}

func (b *broadcast) finish() {
	if b.finished {
		return
	}
	b.finished = true
	b.timeout.Cancel()
	if b.done != nil {
		b.done(&b.spread)
	}
}

// MeasurePropagation runs rounds broadcasts of the given size from random
// origins and invokes done with the pooled delivery times, in delivery
// order. It is the calibration step feeding the PoW fork model.
func (nw *Network) MeasurePropagation(rounds, size int, done func(delays []time.Duration)) {
	var delays []time.Duration
	remaining := rounds
	var runOne func()
	runOne = func() {
		origin := nw.rng.Intn(len(nw.addrs))
		nw.Broadcast(origin, size, func(sp *Spread) {
			delays = append(delays, sp.DeliveryTimes...)
			remaining--
			if remaining > 0 {
				// Space rounds out so broadcasts do not overlap.
				nw.sim.After(nw.cfg.RoundPacing, runOne)
				return
			}
			if done != nil {
				done(delays)
			}
		})
	}
	if rounds <= 0 {
		done(delays)
		return
	}
	runOne()
}
