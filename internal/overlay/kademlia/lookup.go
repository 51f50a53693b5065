package kademlia

import (
	"math/bits"
	"time"

	"repro/internal/netmodel"
	"repro/internal/overlay"
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

// candidate is one contact a lookup has learned. Its id is dist ⊕ the
// lookup's target, so only the distance is kept.
type candidate struct {
	dist  overlay.Distance // to the lookup's target
	addr  netmodel.NodeID
	state int
}

// lookup is one iterative FIND_NODE lookup. It is taken from the network's
// pool and goes back once it is finished and no query of it is in flight,
// so a reply never reaches a lookup that has been handed on.
type lookup struct {
	nw     *Network
	origin *Node
	target overlay.ID

	// cands holds every contact learned so far in ascending distance to
	// target; entries are never dropped. A distance is unique per target,
	// so it names its candidate, and seen holds the same distances as a
	// hash set: a contact already learned costs a probe there.
	cands    []candidate
	seen     seenSet
	inflight int
	rpcs     int
	timeouts int
	start    time.Duration
	done     func(Result)
	finished bool
}

// Lookup runs an iterative FIND_NODE lookup from origin toward target,
// invoking done exactly once on termination. The origin must be online;
// otherwise done fires immediately with an empty result. done may be nil,
// and then no Result is built.
func (nw *Network) Lookup(origin *Node, target overlay.ID, done func(Result)) {
	p := &nw.pool
	l := nw.newLookup()
	l.origin, l.target, l.start, l.done = origin, target, nw.sim.Now(), done
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

// search returns the index of the first candidate not nearer than d.
func (l *lookup) search(d overlay.Distance) int {
	lo, hi := 0, len(l.cands)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.cands[m].dist.Less(d) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// contact returns the contact c stands for.
func (l *lookup) contact(c *candidate) Contact {
	return Contact{ID: overlay.XORDistance(c.dist, l.target), Addr: c.addr}
}

// add makes c a candidate unless it is the origin or already one. Replies
// are sets: the candidate list is the same whatever order contacts arrive
// in, so no caller orders what it offers.
func (l *lookup) add(c Contact) {
	if c.ID == l.origin.ID {
		return
	}
	d := overlay.XORDistance(c.ID, l.target)
	if !l.seen.insert(d) {
		return // equal distance to one target: the same id, already a candidate
	}
	i := l.search(d)
	l.cands = append(l.cands, candidate{})
	copy(l.cands[i+1:], l.cands[i:])
	l.cands[i] = candidate{dist: d, addr: c.Addr, state: statePending}
}

// seenSet is an open-addressed set of distances, probed linearly from the
// top bits of overlay.ID.Hash. A slot is occupied when it carries the set's
// generation, so reset empties the set by bumping gen instead of clearing
// its slots; it grows at half load by doubling.
type seenSet struct {
	slots []seenSlot // a power of two long, or nil
	shift uint       // 64 − log₂ len(slots)
	gen   uint32     // never 0 once slots exist: zeroed slots are empty
	n     int
}

type seenSlot struct {
	d   overlay.Distance
	gen uint32
}

// seenFirst is a new set's slot count: a lookup learns a few dozen
// contacts (E15 averages 40), and every lookup in flight holds its set.
const seenFirst = 64

// insert adds d and reports whether it was not in the set.
func (s *seenSet) insert(d overlay.Distance) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := int(d.Hash() >> s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			sl.d, sl.gen = d, s.gen
			s.n++
			return true
		}
		if sl.d == d {
			return false
		}
	}
}

// grow doubles the slots (or makes the first ones) and re-inserts what the
// set holds under generation 1.
func (s *seenSet) grow() {
	old, gen := s.slots, s.gen
	size := max(2*len(old), seenFirst)
	s.slots, s.shift, s.gen, s.n = make([]seenSlot, size), uint(64-bits.TrailingZeros(uint(size))), 1, 0
	for i := range old {
		if old[i].gen == gen {
			s.insert(old[i].d)
		}
	}
}

// reset empties the set, keeping its slots.
func (s *seenSet) reset() {
	s.n = 0
	if s.gen++; s.gen == 0 {
		clear(s.slots) // the stamp wrapped: old stamps would read as current
		s.gen = 1
	}
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
		l.nw.newRPC().send(l, c.addr, c.dist)
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
	c := &l.cands[l.search(d)]
	if !ok {
		c.state = stateFailed
		l.timeouts++
		// Evict dead entries — the lazy repair every deployment performs.
		l.origin.table.Remove(overlay.XORDistance(c.dist, l.target))
	} else {
		c.state = stateResponded
		l.origin.table.Add(l.contact(c))
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
	if l.done != nil {
		var closest []Contact
		for i := range l.cands {
			if c := &l.cands[i]; c.state == stateResponded {
				if closest == nil {
					closest = make([]Contact, 0, l.nw.cfg.K)
				}
				closest = append(closest, l.contact(c))
				if len(closest) >= l.nw.cfg.K {
					break
				}
			}
		}
		l.done(Result{
			Closest:   closest,
			RPCs:      l.rpcs,
			Timeouts:  l.timeouts,
			Latency:   l.nw.sim.Now() - l.start,
			Converged: converged,
		})
	}
	if l.inflight == 0 {
		l.release()
	}
}

// release hands a finished lookup with no query in flight back to the pool.
func (l *lookup) release() {
	nw := l.nw
	l.seen.reset()
	*l = lookup{nw: nw, cands: l.cands[:0], seen: l.seen}
	nw.pool.lookups = append(nw.pool.lookups, l)
}
