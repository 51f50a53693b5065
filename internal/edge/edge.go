// Package edge models the geography behind edge-centric computing (Garcia
// Lopez et al., the authors' own prior work and the paper's Figure 1):
// clients, nano-datacenter edge nodes, and a handful of regional cloud
// datacenters placed on a plane, with network latency driven by distance.
//
// The quantitative claim it supports (E14): placing latency-sensitive
// services on nearby edge nodes cuts client RTT by a large factor relative
// to a centralized cloud, while the permissioned-blockchain layer (built in
// internal/permissioned) provides the decentralized trust among edge
// operators.
package edge

import (
	"errors"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config parameterizes a deployment geography.
type Config struct {
	// Clients, EdgeNodes and CloudDCs are the population sizes.
	Clients, EdgeNodes, CloudDCs int
	// AreaKM is the side of the square service region in kilometres
	// (default 3000, a continent).
	AreaKM float64
	// ServiceMs is the server-side processing time.
	ServiceMs float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Clients <= 0 || c.EdgeNodes <= 0 || c.CloudDCs <= 0 {
		return c, errors.New("edge: all population sizes must be positive")
	}
	if c.AreaKM <= 0 {
		c.AreaKM = 3000
	}
	if c.ServiceMs < 0 {
		c.ServiceMs = 0
	}
	return c, nil
}

const (
	// lastMileMs is the fixed access-network latency every path pays.
	lastMileMs = 4
	// msPerKM is one-way propagation per kilometre including routing
	// inflation: fibre at 2/3 c with 1.5x detours.
	msPerKM = 0.03
)

type point struct {
	x, y float64
}

func dist(a, b point) float64 {
	dx, dy := a.x-b.x, a.y-b.y
	return math.Sqrt(dx*dx + dy*dy)
}

// Deployment is a placed geography.
type Deployment struct {
	cfg     Config
	clients []point
	edges   []point
	clouds  []point
}

// New places clients and edge nodes uniformly and cloud DCs at random
// metropolitan locations.
func New(g *sim.RNG, cfg Config) (*Deployment, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Deployment{cfg: cfg}
	place := func(n int) []point {
		pts := make([]point, n)
		for i := range pts {
			pts[i] = point{x: g.Float64() * cfg.AreaKM, y: g.Float64() * cfg.AreaKM}
		}
		return pts
	}
	d.clients = place(cfg.Clients)
	d.edges = place(cfg.EdgeNodes)
	d.clouds = place(cfg.CloudDCs)
	return d, nil
}

// rttMs returns the request-response latency between a client and a server
// location.
func (d *Deployment) rttMs(c, s point) float64 {
	oneWay := lastMileMs + dist(c, s)*msPerKM
	return 2*oneWay + d.cfg.ServiceMs
}

func nearest(c point, sites []point) point {
	best := sites[0]
	bestD := dist(c, best)
	for _, s := range sites[1:] {
		if ds := dist(c, s); ds < bestD {
			best, bestD = s, ds
		}
	}
	return best
}

// Placement selects which tier serves requests.
type Placement int

// The supported placements.
const (
	// EdgePlacement serves each client from its nearest edge node.
	EdgePlacement Placement = iota + 1
	// CloudPlacement serves each client from its nearest cloud DC.
	CloudPlacement
	// CentralPlacement serves every client from one fixed DC (the fully
	// centralized baseline).
	CentralPlacement
)

func (p Placement) String() string {
	switch p {
	case EdgePlacement:
		return "edge"
	case CloudPlacement:
		return "cloud"
	case CentralPlacement:
		return "central"
	default:
		return "unknown"
	}
}

// Latencies returns the per-client RTT sample (milliseconds) under the
// given placement.
func (d *Deployment) Latencies(p Placement) *metrics.Sample {
	var sample metrics.Sample
	for _, c := range d.clients {
		var server point
		switch p {
		case EdgePlacement:
			server = nearest(c, d.edges)
		case CloudPlacement:
			server = nearest(c, d.clouds)
		default:
			server = d.clouds[0]
		}
		sample.Add(d.rttMs(c, server))
	}
	return &sample
}

// Comparison summarizes edge-vs-cloud placement.
type Comparison struct {
	EdgeMedianMs, CloudMedianMs, CentralMedianMs float64
	EdgeP95Ms, CloudP95Ms                        float64
	// MedianSpeedup is cloud median / edge median.
	MedianSpeedup float64
	// WithinBudgetEdge/Cloud are the fractions of clients within the
	// latency budget.
	WithinBudgetEdge, WithinBudgetCloud float64
}

// Compare evaluates all placements against a latency budget in ms (e.g. 20
// ms for interactive control loops).
func (d *Deployment) Compare(budgetMs float64) Comparison {
	edge := d.Latencies(EdgePlacement)
	cloud := d.Latencies(CloudPlacement)
	central := d.Latencies(CentralPlacement)
	cmp := Comparison{
		EdgeMedianMs:    edge.Median(),
		CloudMedianMs:   cloud.Median(),
		CentralMedianMs: central.Median(),
		EdgeP95Ms:       edge.Percentile(95),
		CloudP95Ms:      cloud.Percentile(95),
	}
	if cmp.EdgeMedianMs > 0 {
		cmp.MedianSpeedup = cmp.CloudMedianMs / cmp.EdgeMedianMs
	}
	if budgetMs > 0 {
		cmp.WithinBudgetEdge = edge.Fraction(func(x float64) bool { return x <= budgetMs })
		cmp.WithinBudgetCloud = cloud.Fraction(func(x float64) bool { return x <= budgetMs })
	}
	return cmp
}

// TheoreticalNearestDistance returns the expected distance to the nearest
// of n uniform sites in a square of side a: ~0.5*a/sqrt(n). Used to sanity
// check the simulation against the analytic scaling.
func TheoreticalNearestDistance(areaKM float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return 0.5 * areaKM / math.Sqrt(float64(n))
}

// Duration converts a latency in milliseconds to a time.Duration.
func Duration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
