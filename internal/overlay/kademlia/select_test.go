package kademlia

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

// bruteClosest is the reference the sort-free selection paths are held to:
// a full sort of the contacts by overlay.CloserXOR, truncated to n. It is
// what Table.Closest, ClosestOnline, Bootstrap and sybil's poisoned replies
// computed before they shared the bounded selector.
func bruteClosest(target overlay.ID, contacts []Contact, n int) []Contact {
	all := append([]Contact(nil), contacts...)
	sort.Slice(all, func(i, j int) bool {
		return overlay.CloserXOR(target, all[i].ID, all[j].ID)
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// clusteredID keeps a random-length prefix of base, flips the next bit and
// randomizes the tail, so ids land in every bucket of base's table. Uniform
// random ids only ever reach buckets 0–9.
func clusteredID(g *sim.RNG, base overlay.ID) overlay.ID {
	id := overlay.RandomID(g)
	cpl := g.Intn(overlay.IDBits)
	for i := 0; i <= cpl; i++ {
		mask := byte(0x80) >> uint(i%8)
		id[i/8] = id[i/8]&^mask | base[i/8]&mask
	}
	id[cpl/8] ^= byte(0x80) >> uint(cpl%8)
	return id
}

// Property: Closest equals the brute-force sort of Contacts on tables whose
// buckets 0…159 are populated, for targets that make both the above-p group
// and the downward walk matter, and across interleaved removals and
// re-insertions.
func TestPropertyClosestMatchesBruteForce(t *testing.T) {
	g := sim.NewRNG(17)
	for round := 0; round < 40; round++ {
		self := overlay.RandomID(g)
		k := []int{1, 3, 8, 20}[g.Intn(4)]
		tab := NewTable(self, k)
		fill := func() {
			for i, adds := 0, g.Intn(400); i < adds; i++ {
				tab.Add(Contact{ID: clusteredID(g, self), Addr: netmodel.NodeID(i)})
			}
		}
		check := func(phase string) {
			contacts := tab.Contacts()
			targets := []overlay.ID{self, overlay.RandomID(g), clusteredID(g, self), clusteredID(g, self)}
			if len(contacts) > 0 {
				stored := contacts[g.Intn(len(contacts))].ID
				targets = append(targets, stored, clusteredID(g, stored))
			}
			for _, target := range targets {
				sorted := bruteClosest(target, contacts, len(contacts))
				for _, n := range []int{1, k, len(contacts), len(contacts) + 5} {
					got, want := tab.Closest(target, n), sorted[:min(n, len(sorted))]
					if !slices.Equal(got, want) {
						t.Fatalf("round %d %s: k=%d size=%d cpl(self,target)=%d n=%d:\n got %v\nwant %v", round, phase,
							k, len(contacts), overlay.CommonPrefixLen(self, target), n, got, want)
					}
				}
			}
		}
		fill()
		check("filled")
		for _, c := range tab.Contacts() {
			if g.Bool(0.5) {
				tab.Remove(c.ID)
			}
		}
		check("thinned")
		fill()
		check("refilled")
	}
}

// ClosestOnline must skip offline, unresponsive and attacker nodes and
// otherwise agree with the brute-force sort, including when the excluded
// nodes are the ones nearest the target.
func TestClosestOnlineMatchesBruteForce(t *testing.T) {
	s := sim.New(sim.WithSeed(23))
	nw := NewNetwork(s, netmodel.New(s), Config{K: 8})
	g := s.Stream("test")
	target := overlay.RandomID(g)
	for i := 0; i < 400; i++ {
		id := overlay.RandomID(g)
		if i%2 == 0 {
			id = clusteredID(g, target)
		}
		n := nw.addNode(netmodel.Europe, id, !g.Bool(0.2), g.Bool(0.2))
		if g.Bool(0.2) {
			nw.SetOnline(n, false)
		}
	}
	var eligible []Contact
	for _, n := range nw.Nodes() {
		if n.Online() && n.Responsive() && !n.Malicious() {
			eligible = append(eligible, Contact{ID: n.ID, Addr: n.Addr})
		}
	}
	if len(eligible) == 0 || len(eligible) == len(nw.Nodes()) {
		t.Fatalf("%d of %d nodes eligible: the filter is not exercised", len(eligible), len(nw.Nodes()))
	}
	for _, tgt := range []overlay.ID{target, eligible[0].ID, overlay.RandomID(g)} {
		for _, k := range []int{1, 8, len(eligible), len(eligible) + 5} {
			var got []Contact
			for _, n := range nw.ClosestOnline(tgt, k) {
				got = append(got, Contact{ID: n.ID, Addr: n.Addr})
			}
			if want := bruteClosest(tgt, eligible, k); !slices.Equal(got, want) {
				t.Fatalf("ClosestOnline(k=%d) differs from the brute-force sort:\n got %v\nwant %v", k, got, want)
			}
		}
	}
}

// TestLookupAdd pins the candidate list's contract: the origin and repeated
// ids are ignored — also once the first occurrence has failed — and the
// list stays strictly ordered by distance to the target.
func TestLookupAdd(t *testing.T) {
	g := sim.NewRNG(29)
	origin := &Node{ID: overlay.RandomID(g)}
	l := &lookup{origin: origin, target: overlay.RandomID(g)}
	l.add(Contact{ID: origin.ID, Addr: 1})
	if len(l.cands) != 0 {
		t.Fatal("the origin became a candidate of its own lookup")
	}
	distinct := make(map[overlay.ID]bool)
	for i := 0; i < 300; i++ {
		id := clusteredID(g, l.target) // long shared prefixes: repeats do occur
		distinct[id] = true
		l.add(Contact{ID: id, Addr: netmodel.NodeID(i)})
	}
	if len(l.cands) != len(distinct) || len(distinct) == 300 {
		t.Fatalf("%d candidates for %d distinct ids in 300 adds", len(l.cands), len(distinct))
	}
	failed := l.cands[len(l.cands)/2]
	failed.state = stateFailed
	before := len(l.cands)
	l.add(Contact{ID: failed.contact.ID, Addr: failed.contact.Addr + 1000})
	l.add(Contact{ID: l.cands[0].contact.ID, Addr: 2000})
	if len(l.cands) != before || failed.state != stateFailed || l.cands[len(l.cands)/2] != failed {
		t.Fatal("re-adding a known id changed the candidate list")
	}
	for i := 1; i < len(l.cands); i++ {
		if !overlay.CloserXOR(l.target, l.cands[i-1].contact.ID, l.cands[i].contact.ID) {
			t.Fatalf("candidates %d and %d are not in strictly ascending distance", i-1, i)
		}
	}
}

func resultsDigest(results []Result) string {
	h := sha256.New()
	for _, r := range results {
		for _, c := range r.Closest {
			h.Write(c.ID[:])
		}
		fmt.Fprintf(h, "|%d|%d|%d|%t\n", r.RPCs, r.Timeouts, r.Latency, r.Converged)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLookupResultsPinned compares all 30 Results of the convergence
// scenario on a plain kernel with digests captured at the commit that still
// sorted the whole table per reply and the whole candidate list per insert.
func TestLookupResultsPinned(t *testing.T) {
	for _, tc := range []struct {
		unresponsive float64
		want         string
	}{
		{0, "02a2b67db0c3c1c384207fd9511e44d03e727aa422b40c3d9a8b868f398db3fd"},
		{0.3, "a70f437dffd4bb73932f9dc98ee7c15496ae743a300e5d5f687975f185f22186"},
	} {
		if got := resultsDigest(convergence(t, 1, 1, tc.unresponsive)); got != tc.want {
			t.Errorf("unresponsive=%g: results digest %s, want %s", tc.unresponsive, got, tc.want)
		}
	}
}

// fuzzID spells an id from two fuzz bytes: self with bit a flipped (self
// itself when a selects no bit) and b folded into the bits below it, so a
// short input reaches every bucket, fills some past k and repeats ids.
func fuzzID(self overlay.ID, a, b byte) overlay.ID {
	id := self
	cpl := int(a) % (overlay.IDBits + 1)
	if cpl == overlay.IDBits {
		return id
	}
	id[cpl/8] ^= byte(0x80) >> uint(cpl%8)
	if cpl/8 < overlay.IDBytes-1 {
		id[overlay.IDBytes-1] ^= b
	} else {
		id[overlay.IDBytes-1] ^= b & (0x7f >> uint(cpl%8))
	}
	return id
}

// FuzzTableOps decodes the input into Add, Remove and Closest operations
// and holds the table to a flat slice kept in recency order: a bucket never
// exceeds k, the owner is never stored, Contacts is the model grouped by
// prefix length, and Closest equals the brute-force sort of the model.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 0, 0, 2, 3, 0, 0, 1})
	f.Add([]byte{0, 0, 5, 1, 0, 5, 2, 1, 5, 3, 2, 5, 9, 0, 160, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		self := overlay.KeyID([]byte("fuzz-owner"))
		k := int(data[0])%4 + 1
		tab := NewTable(self, k)
		var model []Contact
		find := func(id overlay.ID) int {
			return slices.IndexFunc(model, func(c Contact) bool { return c.ID == id })
		}
		inBucket := func(cpl int) (n int) {
			for _, c := range model {
				if overlay.CommonPrefixLen(self, c.ID) == cpl {
					n++
				}
			}
			return n
		}
		for step, ops := 0, data[1:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
			id := fuzzID(self, ops[1], ops[2])
			cpl := overlay.CommonPrefixLen(self, id)
			switch ops[0] % 4 {
			case 0, 1:
				c := Contact{ID: id, Addr: netmodel.NodeID(step)}
				want := false
				if i := find(id); i >= 0 {
					model, want = append(slices.Delete(model, i, i+1), c), true
				} else if id != self && inBucket(cpl) < k {
					model, want = append(model, c), true
				}
				if got := tab.Add(c); got != want {
					t.Fatalf("step %d: Add(cpl %d) = %v, model says %v", step, cpl, got, want)
				}
			case 2:
				if i := find(id); i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
				tab.Remove(id)
			case 3:
				n := int(ops[0]/4)%(len(model)+3) + 1
				if got, want := tab.Closest(id, n), bruteClosest(id, model, n); !slices.Equal(got, want) {
					t.Fatalf("step %d: Closest(cpl %d, n=%d):\n got %v\nwant %v", step, cpl, n, got, want)
				}
			}
			for b := 0; b <= overlay.IDBits; b++ {
				if len(tab.buckets[b]) > k {
					t.Fatalf("step %d: bucket %d holds %d > k=%d", step, b, len(tab.buckets[b]), k)
				}
			}
			grouped := slices.Clone(model)
			slices.SortStableFunc(grouped, func(a, b Contact) int {
				return overlay.CommonPrefixLen(self, a.ID) - overlay.CommonPrefixLen(self, b.ID)
			})
			if holds(tab, self) || !slices.Equal(tab.Contacts(), grouped) {
				t.Fatalf("step %d: table diverged from the model:\n got %v\nwant %v", step, tab.Contacts(), grouped)
			}
		}
	})
}

// benchTargets is the ledger probe's shape (bench/probes.go: 600 nodes
// bootstrapped as E15 builds them, K = 8, targets from their own stream), so
// `go test -bench` and overlay.kademlia.closest_ns / lookup_host_us tell one
// story.
func benchTargets(tb testing.TB) (*sim.Sim, *Network, []overlay.ID) {
	s, nw := newDeployment(tb, 600, Config{K: 8, Alpha: 3, RPCTimeout: 2 * time.Second}, 1)
	g := sim.NewRNG(2)
	targets := make([]overlay.ID, 256)
	for i := range targets {
		targets[i] = overlay.RandomID(g)
	}
	return s, nw, targets
}

var benchSink int

func BenchmarkTableClosest(b *testing.B) {
	_, nw, targets := benchTargets(b)
	nodes := nw.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(nodes[i%len(nodes)].Table().Closest(targets[i%len(targets)], 8))
	}
}

func BenchmarkLookup(b *testing.B) {
	s, nw, targets := benchTargets(b)
	nodes := nw.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Lookup(nodes[i%len(nodes)], targets[i%len(targets)], func(r Result) { benchSink += len(r.Closest) })
		if err := s.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

// Closest allocates its result and the distances beside it, nothing else:
// no copy of the table, no sort closure.
func TestClosestAllocs(t *testing.T) {
	_, nw, targets := benchTargets(t)
	nodes := nw.Nodes()
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		benchSink += len(nodes[i%len(nodes)].Table().Closest(targets[i%len(targets)], 8))
		i++
	})
	if allocs > 2 {
		t.Fatalf("Table.Closest(target, 8) allocates %.1f objects per call, want at most 2", allocs)
	}
}
