// Package kademlia implements the Kademlia DHT (Maymounkov & Mazières 2002)
// as deployed in eMule KAD and the BitTorrent Mainline DHT: k-bucket routing
// tables, iterative α-parallel lookups over an unreliable message-level
// network, per-RPC timeouts, and the sender-learning behaviour that makes
// open deployments vulnerable to sybil poisoning.
//
// The package reproduces the mechanisms behind three of the paper's claims:
// lookup latency divergence between KAD-like and MDHT-like deployments
// (Jiménez et al.), degradation under churn, and sybil/eclipse attacks on
// open identifier assignment.
package kademlia

import (
	"repro/internal/netmodel"
	"repro/internal/overlay"
)

// Contact is a routing-table entry: an overlay identifier plus the network
// address it claims to live at.
type Contact struct {
	ID   overlay.ID
	Addr netmodel.NodeID
}

// Table is a Kademlia routing table: up to IDBits k-buckets indexed by the
// common prefix length with the owner's identifier. Buckets keep
// least-recently-seen contacts at the front and, when full, drop newcomers —
// Kademlia's documented bias toward long-lived peers. A table is only ever
// touched on its owner's kernel, which is what lets it keep scratch space.
type Table struct {
	self    overlay.ID
	k       int
	top     int // highest bucket index ever filled: every bucket above it is empty
	buckets [][]Contact
	dists   []overlay.Distance // appendClosest's scratch, beside the items it selects
}

// NewTable creates a routing table for the given owner with bucket size k.
func NewTable(self overlay.ID, k int) *Table {
	if k <= 0 {
		k = 20
	}
	return &Table{
		self:    self,
		k:       k,
		buckets: make([][]Contact, overlay.IDBits+1),
		dists:   make([]overlay.Distance, 0, k),
	}
}

// reset empties every bucket in place, keeping their storage.
func (t *Table) reset() {
	for i := 0; i <= t.top; i++ {
		t.buckets[i] = t.buckets[i][:0]
	}
	t.top = 0
}

// Add inserts or refreshes a contact. Existing contacts move to the
// most-recently-seen position; new contacts are appended if the bucket has
// room and dropped otherwise. The owner's own id is never stored. It reports
// whether the contact is present after the call.
func (t *Table) Add(c Contact) bool {
	if c.ID == t.self {
		return false
	}
	idx := overlay.CommonPrefixLen(t.self, c.ID)
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == c.ID {
			// Move to tail (most recently seen).
			copy(b[i:], b[i+1:])
			b[len(b)-1] = c
			return true
		}
	}
	if len(b) == t.k {
		return false
	}
	if b == nil {
		b = make([]Contact, 0, t.k)
	}
	t.buckets[idx] = append(b, c)
	t.top = max(t.top, idx)
	return true
}

// Remove deletes a contact (e.g. after an RPC timeout).
func (t *Table) Remove(id overlay.ID) {
	idx := overlay.CommonPrefixLen(t.self, id)
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			t.buckets[idx] = append(b[:i], b[i+1:]...)
			return
		}
	}
}

// Size returns the total number of stored contacts.
func (t *Table) Size() int {
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// nearest keeps the n items closest to target among those offered, in
// ascending XOR distance, each distance computed once and stored beside its
// item. Every caller offers pairwise distinct ids, on which the distance
// order is strict and total — so the outcome is the unique one a full sort
// by overlay.CloserXOR would produce.
type nearest[T any] struct {
	target overlay.ID
	n      int
	items  []T
	dists  []overlay.Distance
}

func newNearest[T any](target overlay.ID, n int) *nearest[T] {
	return &nearest[T]{target: target, n: n, items: make([]T, 0, n), dists: make([]overlay.Distance, 0, n)}
}

func (s *nearest[T]) full() bool { return len(s.items) == s.n }

func (s *nearest[T]) offer(id overlay.ID, item T) {
	d := overlay.XORDistance(id, s.target)
	i := len(s.items)
	switch {
	case !s.full():
		s.items, s.dists = append(s.items, item), append(s.dists, d)
	case i > 0 && d.Less(s.dists[i-1]):
		i-- // takes the place of the farthest item held
	default:
		return
	}
	for ; i > 0 && d.Less(s.dists[i-1]); i-- {
		s.items[i], s.dists[i] = s.items[i-1], s.dists[i-1]
	}
	s.items[i], s.dists[i] = item, d
}

// Nearest returns the up to n contacts closest to target, sorted by XOR
// distance. The contacts' ids must be pairwise distinct.
func Nearest(target overlay.ID, contacts []Contact, n int) []Contact {
	sel := newNearest[Contact](target, n)
	for _, c := range contacts {
		sel.offer(c.ID, c)
	}
	return sel.items
}

// Closest returns up to n contacts sorted by XOR distance to target.
func (t *Table) Closest(target overlay.ID, n int) []Contact {
	if n <= 0 {
		return nil
	}
	return t.appendClosest(nil, target, n)
}

// appendClosest appends the up to n contacts closest to target to dst, in
// ascending XOR distance, growing dst at most once.
//
// Whole buckets are offered in ascending distance. With x = self⊕target and
// p its leading one (the prefix self shares with target), a contact c in
// bucket j is at distance x⊕(self⊕c), where self⊕c has its leading one at
// j. Bucket p therefore holds exactly the contacts sharing more than p bits
// with target: they come first. A bucket j > p agrees with x on bits
// p … j−1 and has bit j of x flipped, so against any bucket above it, bucket
// j is nearer iff bit j of x is set: the set ones follow in ascending j,
// then the clear ones in descending j. A bucket j < p has its leading one at
// j, so those come last, in descending j. This is a total order of whole
// buckets, and a selector holding n at a bucket boundary cannot change any
// more.
func (t *Table) appendClosest(dst []Contact, target overlay.ID, n int) []Contact {
	if n <= 0 {
		return dst
	}
	if cap(dst)-len(dst) < n {
		// Not slices.Grow: under -race its append-of-make costs two allocations.
		dst = append(make([]Contact, 0, len(dst)+n), dst...)
	}
	sel := nearest[Contact]{target: target, n: n, items: dst[len(dst):], dists: t.dists[:0]}
	x := overlay.XORDistance(t.self, target)
	p := overlay.CommonPrefixLen(t.self, target)
	full := offerBucket(&sel, t.buckets[p])
	for j := p + 1; j <= t.top && !full; j++ {
		if x.Bit(j) == 1 {
			full = offerBucket(&sel, t.buckets[j])
		}
	}
	for j := t.top; j > p && !full; j-- {
		if x.Bit(j) == 0 {
			full = offerBucket(&sel, t.buckets[j])
		}
	}
	for j := p - 1; j >= 0 && !full; j-- {
		full = offerBucket(&sel, t.buckets[j])
	}
	t.dists = sel.dists[:0]
	return dst[:len(dst)+len(sel.items)] // the selector filled dst's spare capacity in place
}

// offerBucket offers every contact of one bucket and reports whether the
// selector is full.
func offerBucket(sel *nearest[Contact], b []Contact) bool {
	for _, c := range b {
		sel.offer(c.ID, c)
	}
	return sel.full()
}

// Contacts returns a copy of every stored contact (bucket order).
func (t *Table) Contacts() []Contact {
	out := make([]Contact, 0, t.Size())
	for _, b := range t.buckets {
		out = append(out, b...)
	}
	return out
}
