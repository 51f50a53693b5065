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
	mid := len(l.cands) / 2
	l.cands[mid].state = stateFailed
	failed, before := l.cands[mid], len(l.cands)
	l.add(Contact{ID: failed.contact.ID, Addr: failed.contact.Addr + 1000})
	l.add(Contact{ID: l.cands[0].contact.ID, Addr: 2000})
	if len(l.cands) != before || l.cands[mid] != failed {
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

// TestShardLookupResultsPinned holds the convergence scenario on a 4-shard
// net, at one worker and at four, to digests captured before lookups, their
// queries and the transport's exchanges were pooled per shard.
func TestShardLookupResultsPinned(t *testing.T) {
	for _, tc := range []struct {
		unresponsive float64
		want         string
	}{
		{0, "5b6f2f41fabc800e576ebd823bb70138221063f6ee21a3c9b83edca239d9ecf2"},
		{0.3, "73196f7df41ba237e1b3d296dd52172b96cbe3388006d077a477ff0252be0020"},
	} {
		for _, workers := range []int{1, 4} {
			if got := resultsDigest(convergence(t, 4, workers, tc.unresponsive)); got != tc.want {
				t.Errorf("unresponsive=%g workers=%d: results digest %s, want %s", tc.unresponsive, workers, got, tc.want)
			}
		}
	}
}

// tablesDigest hashes every node's routing table, nodes in creation order
// and contacts in bucket and recency order.
func tablesDigest(nw *Network) string {
	h := sha256.New()
	for _, n := range nw.Nodes() {
		for _, c := range n.Table().Contacts() {
			h.Write(c.ID[:])
			fmt.Fprintf(h, "@%d", c.Addr)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// churnLookups is E15 in miniature: 200 nodes and 600 events spread over
// 30 s, each drawing a node and taking it offline, rejoining it, or starting
// a lookup from it. Lookups average ~50 ms apart and last longer, so origins
// leave, wipe and rebuild their tables while their own and other nodes'
// queries are in flight. It returns the results in completion order and the
// digest of the final routing tables.
func churnLookups(t *testing.T) ([]Result, string) {
	t.Helper()
	s, nw := newDeployment(t, 200, Config{K: 8, Alpha: 3, RPCTimeout: 500 * time.Millisecond}, 31)
	g := s.Stream("churn")
	var results []Result
	rejoined := 0
	for i := 0; i < 600; i++ {
		s.At(time.Duration(g.Float64()*float64(30*time.Second)), func() {
			n := nw.Nodes()[g.Intn(len(nw.Nodes()))]
			switch {
			case !n.Online():
				nw.Rejoin(n, func() { rejoined++ })
			case g.Bool(0.3):
				nw.SetOnline(n, false)
			default:
				nw.Lookup(n, overlay.RandomID(g), func(r Result) { results = append(results, r) })
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rejoined == 0 || len(results) < 300 {
		t.Fatalf("%d rejoins and %d lookups completed: the scenario does not churn", rejoined, len(results))
	}
	return results, fmt.Sprintf("%s/%d", tablesDigest(nw), rejoined)
}

// lateServe spreads 300 nodes over all six regions under a 60 ms
// RPCTimeout. Every inter-region one-way delay is at least 45 ms, so many
// replies arrive after their query was declared dead, and on the links of
// 70 ms or more the request itself is served only after that.
func lateServe(t *testing.T) []Result {
	t.Helper()
	s := sim.New(sim.WithSeed(37))
	nw := NewNetwork(s, netmodel.New(s, netmodel.WithJitter(0.1)), Config{K: 8, Alpha: 3, RPCTimeout: 60 * time.Millisecond})
	for i := 0; i < 300; i++ {
		nw.AddNode(netmodel.Region(i%netmodel.NumRegions + 1))
	}
	if err := nw.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	g := s.Stream("late")
	var results []Result
	for i := 0; i < 60; i++ {
		origin := nw.Nodes()[g.Intn(len(nw.Nodes()))]
		s.At(time.Duration(i)*20*time.Millisecond, func() {
			nw.Lookup(origin, overlay.RandomID(g), func(r Result) { results = append(results, r) })
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	timeouts := 0
	for _, r := range results {
		timeouts += r.Timeouts
	}
	if len(results) != 60 || timeouts == 0 {
		t.Fatalf("%d lookups completed with %d timeouts", len(results), timeouts)
	}
	return results
}

// poisoned lets 24 attacker identities minted around one victim key
// announce themselves through lookups of it, then runs 40 honest lookups,
// alternately toward the victim and toward random keys. Every attacker
// answers FIND_NODE with the 8 identities closest to the queried target.
func poisoned(t *testing.T) []Result {
	t.Helper()
	s, nw := newDeployment(t, 300, Config{K: 8, Alpha: 3, RPCTimeout: time.Second}, 41)
	g := s.Stream("poison")
	victim := overlay.RandomID(g)
	var atk []Contact
	poison := func(target overlay.ID) []Contact { return Nearest(target, atk, 8) }
	for i := 0; i < 24; i++ {
		id := victim
		id[overlay.IDBytes-1] ^= byte(i + 1)
		mal := nw.AddMaliciousNode(netmodel.Europe, id, poison)
		atk = append(atk, Contact{ID: mal.ID, Addr: mal.Addr})
		honest := nw.Nodes()[g.Intn(300)]
		mal.Table().Add(Contact{ID: honest.ID, Addr: honest.Addr})
		s.At(time.Duration(i)*10*time.Millisecond, func() { nw.Lookup(mal, victim, nil) })
	}
	var results []Result
	for i := 0; i < 40; i++ {
		origin, target := nw.Nodes()[g.Intn(300)], victim
		if i%2 == 1 {
			target = overlay.RandomID(g)
		}
		s.At(time.Second+time.Duration(i)*25*time.Millisecond, func() {
			nw.Lookup(origin, target, func(r Result) { results = append(results, r) })
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results
}

// TestLookupScenariosPinned holds three lookup scenarios the convergence pin
// does not reach — churn, late serves, poisoning — to digests captured
// before lookups, their queries and the transport's exchanges were pooled.
func TestLookupScenariosPinned(t *testing.T) {
	results, tables := churnLookups(t)
	for _, tc := range []struct{ name, got, want string }{
		{"churn results", resultsDigest(results), "3fbdad2f0cf318ddc600e471643753d6393719d11e4c88735bc2389908435db7"},
		{"churn tables", tables, "f9f4e1756685e7f49b3fc488fae211378fec4a5386298bd4076c1dedc3b7bfa0/108"},
		{"late serve", resultsDigest(lateServe(t)), "e85930b2e6e08303358eca19b1fe3576dfb76e3ae7fe51df46614f44b03e96dc"},
		{"poisoning", resultsDigest(poisoned(t)), "377cec8b1ccc65a96d1de5ca20d29dce6cbf94ca49eeefa3e8088fe637caba40"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, tc.got, tc.want)
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

// Closest allocates its result, nothing else: no copy of the table, no sort
// closure, and the distances beside the selected items live in the table.
func TestClosestAllocs(t *testing.T) {
	_, nw, targets := benchTargets(t)
	nodes := nw.Nodes()
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		benchSink += len(nodes[i%len(nodes)].Table().Closest(targets[i%len(targets)], 8))
		i++
	})
	if allocs > 1 {
		t.Fatalf("Table.Closest(target, 8) allocates %.1f objects per call, want at most 1", allocs)
	}
}

// A warm lookup allocates its Result.Closest and nothing else: the lookup,
// its candidates, its queries, their replies and the transport's exchanges
// all come back from the pools. Warm means every lookup of the cycle has
// run twice, so sender learning has put the origins in every table it will.
func TestLookupSteadyStateAllocs(t *testing.T) {
	s, nw, targets := benchTargets(t)
	nodes := nw.Nodes()
	done := func(r Result) { benchSink += len(r.Closest) }
	i := 0
	lookup := func() {
		nw.Lookup(nodes[i%16], targets[i%16], done)
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		i++
	}
	for i < 32 {
		lookup()
	}
	if allocs := testing.AllocsPerRun(160, lookup); allocs > 1 {
		t.Fatalf("a warm lookup allocates %.1f objects, want 1 (its Result.Closest)", allocs)
	}
}
