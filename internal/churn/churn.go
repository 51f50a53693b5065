// Package churn drives node arrival and departure in simulated overlays.
//
// Every node alternates between online sessions and offline gaps whose
// durations are drawn from configurable distributions. Measurement studies of
// open overlays (KAD, BitTorrent MDHT) consistently report heavy-tailed
// session times; E15 sweeps the mean of an exponential session model, the
// one the package ships. This is the mechanism behind the paper's Problem 2
// ("performance problems due to instability, heterogeneity and churn").
package churn

import (
	"errors"
	"time"

	"repro/internal/sim"
)

// Dist produces a random duration; used for session and gap lengths.
type Dist func(*sim.RNG) time.Duration

// Exponential returns a Dist with exponentially distributed durations of the
// given mean.
func Exponential(mean time.Duration) Dist {
	return func(g *sim.RNG) time.Duration { return g.ExpDuration(mean) }
}

// Config describes the churn behaviour of a node population.
type Config struct {
	// Session is the online-duration distribution (required).
	Session Dist
	// Gap is the offline-duration distribution (required).
	Gap Dist
	// InitialOnline is the fraction of nodes online at time zero.
	InitialOnline float64
}

// Process drives joins and leaves for n nodes. Create with New, then Start.
type Process struct {
	sim     *sim.Sim
	rng     *sim.RNG
	cfg     Config
	online  []bool
	onJoin  func(node int)
	onLeave func(node int)
	stopped bool
}

// New creates a churn process over nodes [0, n). onJoin/onLeave may be nil.
func New(s *sim.Sim, n int, cfg Config, onJoin, onLeave func(node int)) (*Process, error) {
	if n <= 0 {
		return nil, errors.New("churn: node count must be positive")
	}
	if cfg.Session == nil || cfg.Gap == nil {
		return nil, errors.New("churn: Session and Gap distributions are required")
	}
	if cfg.InitialOnline < 0 {
		cfg.InitialOnline = 0
	}
	if cfg.InitialOnline > 1 {
		cfg.InitialOnline = 1
	}
	return &Process{
		sim:     s,
		rng:     s.Stream("churn"),
		cfg:     cfg,
		online:  make([]bool, n),
		onJoin:  onJoin,
		onLeave: onLeave,
	}, nil
}

// Start sets the initial online population (invoking onJoin for each
// initially-online node) and schedules the alternating session/gap cycle for
// every node.
func (p *Process) Start() {
	for i := range p.online {
		i := i
		if p.rng.Bool(p.cfg.InitialOnline) {
			p.join(i)
			p.scheduleLeave(i)
		} else {
			p.scheduleJoin(i)
		}
	}
}

// Stop halts all future churn transitions; current states are frozen.
func (p *Process) Stop() { p.stopped = true }

func (p *Process) scheduleLeave(node int) {
	d := p.cfg.Session(p.rng)
	p.sim.After(d, func() {
		if p.stopped || !p.online[node] {
			return
		}
		p.leave(node)
		p.scheduleJoin(node)
	})
}

func (p *Process) scheduleJoin(node int) {
	d := p.cfg.Gap(p.rng)
	p.sim.After(d, func() {
		if p.stopped || p.online[node] {
			return
		}
		p.join(node)
		p.scheduleLeave(node)
	})
}

func (p *Process) join(node int) {
	p.online[node] = true
	if p.onJoin != nil {
		p.onJoin(node)
	}
}

func (p *Process) leave(node int) {
	p.online[node] = false
	if p.onLeave != nil {
		p.onLeave(node)
	}
}

// Online reports whether the node is currently online.
func (p *Process) Online(node int) bool {
	if node < 0 || node >= len(p.online) {
		return false
	}
	return p.online[node]
}

// OnlineCount returns the number of currently online nodes.
func (p *Process) OnlineCount() int {
	n := 0
	for _, up := range p.online {
		if up {
			n++
		}
	}
	return n
}

// ExpectedAvailability returns the steady-state fraction of time a node is
// online for mean session s and mean gap g: s/(s+g).
func ExpectedAvailability(session, gap time.Duration) float64 {
	if session <= 0 {
		return 0
	}
	return float64(session) / float64(session+gap)
}
