// Package sybil implements sybil and eclipse attacks on the Kademlia DHT
// (Douceur 2002; Steiner et al.'s KAD measurements): an attacker mints many
// identities from a few hosts, announces them into honest routing tables via
// ordinary lookups, and — when targeting a key — answers queries with
// fabricated contacts so that honest lookups terminate inside the attacker's
// identity cloud.
//
// It supports the paper's Problem 3 claim: open identifier assignment makes
// open overlays structurally attackable.
package sybil

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/overlay/kademlia"
	"repro/internal/sim"
)

// AttackConfig parameterizes an attack.
type AttackConfig struct {
	// Identities is the number of sybil identities minted.
	Identities int
	// Targeted aims all identities at Target's neighbourhood (an eclipse
	// attack); otherwise identities are spread uniformly.
	Targeted bool
	// Target is the victim key for targeted attacks.
	Target overlay.ID
}

// replyLen is the number of fabricated contacts in one poisoned reply.
const replyLen = 16

// Attack is a launched sybil attack.
type Attack struct {
	nodes    []*kademlia.Node
	contacts []kademlia.Contact
	byID     []kademlia.Contact // contacts in ascending id order: poison's prefix index
	reply    []kademlia.Contact // poison's result, overwritten by the next call
	isAtk    map[overlay.ID]bool
}

// Launch mints the identities, wires their poisoned response behaviour, and
// schedules the announcement lookups. Run the simulator afterwards to let
// announcements spread, then measure with Measure*.
func Launch(s *sim.Sim, nw *kademlia.Network, cfg AttackConfig) (*Attack, error) {
	if cfg.Identities <= 0 {
		return nil, errors.New("sybil: need at least one identity")
	}
	rng := s.Stream("sybil")
	a := &Attack{isAtk: make(map[overlay.ID]bool, cfg.Identities)}
	honest := make([]*kademlia.Node, 0, len(nw.Nodes()))
	for _, n := range nw.Nodes() {
		if !n.Malicious() {
			honest = append(honest, n)
		}
	}
	if len(honest) == 0 {
		return nil, errors.New("sybil: no honest nodes to attack")
	}
	for i := 0; i < cfg.Identities; i++ {
		var id overlay.ID
		if cfg.Targeted {
			id = targetedID(cfg.Target, i)
		} else {
			id = overlay.RandomID(rng)
		}
		node := nw.AddMaliciousNode(netmodel.Europe, id, a.poison) // the attacker's hosts
		a.nodes = append(a.nodes, node)
		a.contacts = append(a.contacts, kademlia.Contact{ID: node.ID, Addr: node.Addr})
		a.isAtk[node.ID] = true
	}
	a.byID = sortedByID(a.contacts)
	a.reply = make([]kademlia.Contact, 0, replyLen)
	// Announcement: each sybil seeds its table with honest contacts and
	// performs one lookup of either the victim key (targeted) or its own id
	// (uniform), planting itself in honest routing tables via sender learning.
	for _, node := range a.nodes {
		node := node
		for j := 0; j < 3; j++ {
			h := honest[rng.Intn(len(honest))]
			node.Table().Add(kademlia.Contact{ID: h.ID, Addr: h.Addr})
		}
		target := node.ID
		if cfg.Targeted {
			target = cfg.Target
		}
		s.After(rng.ExpDuration(500_000_000), func() { nw.Lookup(node, target, nil) }) // spread over ~0.5s mean
	}
	return a, nil
}

// targetedID is the i-th identity of a cloud aimed at key: only low-order
// bits are flipped, so every sybil is closer to the victim key than any
// honest node. The low byte wraps at i = 255, whose identity is key itself.
func targetedID(key overlay.ID, i int) overlay.ID {
	b := key.Bytes()
	b[overlay.IDBytes-1] ^= byte(i + 1)
	b[overlay.IDBytes-2] ^= byte(i >> 8)
	return overlay.FromBytes(b)
}

// sortedByID returns a copy of the contacts in ascending id order, equal ids
// in their given order.
func sortedByID(contacts []kademlia.Contact) []kademlia.Contact {
	s := slices.Clone(contacts)
	slices.SortStableFunc(s, func(x, y kademlia.Contact) int { return x.ID.Cmp(y.ID) })
	return s
}

// poison fabricates FIND_NODE replies: the sybils closest to the queried
// target, cross-referencing the identity cloud so honest lookups spiral
// inward and never escape. The reply is the Attack's buffer, valid until the
// next call.
func (a *Attack) poison(target overlay.ID) []kademlia.Contact {
	a.reply = appendNearest(a.reply[:0], target, a.byID)
	return a.reply
}

// appendNearest appends to dst, up to replyLen in all, the contacts of the
// non-empty range r closest to target, in ascending XOR distance; r is sorted
// by id.
//
// The ids of a sorted range share exactly the prefix its first and last ids
// share, say d bits, and bit d splits the range into two contiguous halves.
// Bits 0…d−1 of the distance to target are therefore equal across the range,
// and bit d is 0 in the half whose bit d is the target's and 1 in the other:
// every id of that near half is closer than every id of the far half, so the
// near half is taken first. A range of equal ids is a leaf, taken in index
// order, as a stable selection would.
func appendNearest(dst []kademlia.Contact, target overlay.ID, r []kademlia.Contact) []kademlia.Contact {
	if len(dst) == replyLen {
		return dst
	}
	d := overlay.CommonPrefixLen(r[0].ID, r[len(r)-1].ID)
	if d == overlay.IDBits {
		return append(dst, r[:min(len(r), replyLen-len(dst))]...)
	}
	m := sort.Search(len(r), func(i int) bool { return r[i].ID.Bit(d) == 1 })
	near, far := r[:m], r[m:]
	if target.Bit(d) == 1 {
		near, far = far, near
	}
	return appendNearest(appendNearest(dst, target, near), target, far)
}

// IsAttacker reports whether an identifier belongs to the attack.
func (a *Attack) IsAttacker(id overlay.ID) bool { return a.isAtk[id] }

// CountAttacker returns how many of the given contacts are attacker
// identities.
func (a *Attack) CountAttacker(contacts []kademlia.Contact) int {
	n := 0
	for _, c := range contacts {
		if a.isAtk[c.ID] {
			n++
		}
	}
	return n
}

// EclipseStats aggregates lookup-poisoning measurements.
type EclipseStats struct {
	// Lookups is the number of measured honest lookups.
	Lookups int
	// MajorityPoisoned counts result sets where attacker identities hold
	// the majority.
	MajorityPoisoned int
	// ClosestPoisoned counts result sets whose closest entry is an
	// attacker identity.
	ClosestPoisoned int
	// AttackerFracSum accumulates the attacker fraction per result set
	// (divide by Lookups for the mean).
	AttackerFracSum float64
}

// MajorityRate returns the fraction of lookups whose result set was
// majority-attacker.
func (e *EclipseStats) MajorityRate() float64 {
	if e.Lookups == 0 {
		return 0
	}
	return float64(e.MajorityPoisoned) / float64(e.Lookups)
}

// ClosestRate returns the fraction of lookups that resolved to an attacker
// as the closest node.
func (e *EclipseStats) ClosestRate() float64 {
	if e.Lookups == 0 {
		return 0
	}
	return float64(e.ClosestPoisoned) / float64(e.Lookups)
}

// MeanAttackerFrac returns the mean attacker share of result sets.
func (e *EclipseStats) MeanAttackerFrac() float64 {
	if e.Lookups == 0 {
		return 0
	}
	return e.AttackerFracSum / float64(e.Lookups)
}

// Record classifies one lookup result into the stats.
func (e *EclipseStats) Record(a *Attack, r kademlia.Result) {
	e.Lookups++
	if len(r.Closest) == 0 {
		return
	}
	atk := a.CountAttacker(r.Closest)
	e.AttackerFracSum += float64(atk) / float64(len(r.Closest))
	if 2*atk > len(r.Closest) {
		e.MajorityPoisoned++
	}
	if a.IsAttacker(r.Closest[0].ID) {
		e.ClosestPoisoned++
	}
}
