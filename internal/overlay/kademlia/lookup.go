package kademlia

import (
	"time"

	"repro/internal/overlay"
	"repro/internal/sim"
)

// Result summarizes one iterative lookup.
type Result struct {
	// Closest holds the responded contacts ordered by XOR distance to the
	// target, at most K entries.
	Closest []Contact
	// RPCs is the number of FIND_NODE queries issued.
	RPCs int
	// Timeouts is how many of those queries expired unanswered.
	Timeouts int
	// Latency is the virtual time from start to termination.
	Latency time.Duration
	// Converged is true if the lookup terminated because the K closest
	// known candidates all responded (as opposed to running out of
	// candidates).
	Converged bool
}

const (
	statePending = iota + 1
	stateInflight
	stateResponded
	stateFailed
)

type candidate struct {
	contact Contact
	dist    overlay.Distance // to the lookup's target
	state   int
}

// lookup is one iterative FIND_NODE lookup. It is taken from its origin's
// shard pool and goes back once it is finished and no query of it is in
// flight, so a reply never reaches a lookup that has been handed on.
type lookup struct {
	nw     *Network
	pool   *pool
	kern   *sim.Sim // the origin's kernel: every step of the lookup runs on it
	origin *Node
	target overlay.ID

	// cands holds every contact learned so far in ascending distance to
	// target; entries are never dropped, so it is also the set of ids seen.
	// A distance is unique per target, so it names its candidate.
	cands    []candidate
	inflight int
	rpcs     int
	timeouts int
	start    time.Duration
	done     func(Result)
	finished bool
}

// Lookup runs an iterative FIND_NODE lookup from origin toward target,
// invoking done exactly once on termination. The origin must be online;
// otherwise done fires immediately with an empty result.
func (nw *Network) Lookup(origin *Node, target overlay.ID, done func(Result)) {
	kern := nw.net.Kernel(origin.Addr)
	p := nw.pools[nw.net.ShardOf(origin.Addr)]
	l := p.lookup()
	l.origin, l.target, l.kern, l.start, l.done = origin, target, kern, kern.Now(), done
	if !origin.online {
		l.finish(false)
		return
	}
	p.seed = origin.table.appendClosest(p.seed[:0], target, nw.cfg.K)
	for _, c := range p.seed {
		l.add(c)
	}
	l.step()
}

// search returns the index of the first candidate not nearer than d, and
// whether it is at distance d.
func (l *lookup) search(d overlay.Distance) (int, bool) {
	lo, hi := 0, len(l.cands)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.cands[m].dist.Less(d) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(l.cands) && l.cands[lo].dist == d
}

func (l *lookup) add(c Contact) {
	if c.ID == l.origin.ID {
		return
	}
	d := overlay.XORDistance(c.ID, l.target)
	i, known := l.search(d)
	if known {
		return // equal distance to one target: the same id, already a candidate
	}
	l.cands = append(l.cands, candidate{})
	copy(l.cands[i+1:], l.cands[i:])
	l.cands[i] = candidate{contact: c, dist: d, state: statePending}
}

// converged reports whether the K closest non-failed candidates have all
// responded — Kademlia's termination condition.
func (l *lookup) converged() bool {
	checked := 0
	for i := range l.cands {
		c := &l.cands[i]
		if c.state == stateFailed {
			continue
		}
		if c.state != stateResponded {
			return false
		}
		checked++
		if checked >= l.nw.cfg.K {
			break
		}
	}
	return checked > 0
}

func (l *lookup) step() {
	if l.finished {
		return
	}
	if l.converged() {
		l.finish(true)
		return
	}
	for i := range l.cands {
		if l.inflight >= l.nw.cfg.Alpha {
			break
		}
		c := &l.cands[i]
		if c.state != statePending {
			continue
		}
		c.state = stateInflight
		l.inflight++
		l.rpcs++
		l.pool.rpc().send(l, c.contact, c.dist)
	}
	if l.inflight == 0 {
		// No candidates left to query and not converged: partial result.
		l.finish(false)
	}
}

// onReply settles the query sent to the candidate at distance d. A reply
// to a finished lookup only counts down its queries in flight.
func (l *lookup) onReply(d overlay.Distance, contacts []Contact, ok bool) {
	l.inflight--
	if l.finished {
		if l.inflight == 0 {
			l.release()
		}
		return
	}
	i, _ := l.search(d)
	c := &l.cands[i]
	if !ok {
		c.state = stateFailed
		l.timeouts++
		// Evict dead entries — the lazy repair every deployment performs.
		l.origin.table.Remove(c.contact.ID)
	} else {
		c.state = stateResponded
		l.origin.table.Add(c.contact)
		for _, nc := range contacts {
			l.add(nc)
		}
	}
	l.step()
}

func (l *lookup) finish(converged bool) {
	if l.finished {
		return
	}
	l.finished = true
	var closest []Contact
	for i := range l.cands {
		if c := &l.cands[i]; c.state == stateResponded {
			if closest == nil {
				closest = make([]Contact, 0, l.nw.cfg.K)
			}
			closest = append(closest, c.contact)
			if len(closest) >= l.nw.cfg.K {
				break
			}
		}
	}
	if l.done != nil {
		l.done(Result{
			Closest:   closest,
			RPCs:      l.rpcs,
			Timeouts:  l.timeouts,
			Latency:   l.kern.Now() - l.start,
			Converged: converged,
		})
	}
	if l.inflight == 0 {
		l.release()
	}
}

// release hands a finished lookup with no query in flight back to its pool.
func (l *lookup) release() {
	p := l.pool
	*l = lookup{nw: l.nw, pool: p, cands: l.cands[:0]}
	p.lookups = append(p.lookups, l)
}
