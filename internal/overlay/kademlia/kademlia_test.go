package kademlia

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

func newDeployment(t testing.TB, n int, cfg Config, seed int64) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw := NewNetwork(s, nm, cfg)
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Europe)
	}
	if err := nw.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return s, nw
}

func TestTableAddAndEvict(t *testing.T) {
	g := sim.NewRNG(1)
	self := overlay.RandomID(g)
	tab := NewTable(self, 4)
	if tab.Add(Contact{ID: self}) {
		t.Fatal("table must not store its owner")
	}
	// Fill one specific bucket with ids sharing CPL 0 with self.
	mk := func(i byte) Contact {
		var id [overlay.IDBytes]byte
		id[0] = ^self.Bytes()[0] // guarantees CPL 0
		id[19] = i
		return Contact{ID: overlay.FromBytes(id), Addr: netmodel.NodeID(i)}
	}
	for i := byte(0); i < 4; i++ {
		if !tab.Add(mk(i)) {
			t.Fatalf("Add #%d failed with room available", i)
		}
	}
	if tab.Add(mk(9)) {
		t.Fatal("full bucket must drop newcomers")
	}
	if !tab.Add(mk(2)) {
		t.Fatal("refreshing an existing contact must succeed")
	}
	if tab.Size() != 4 {
		t.Fatalf("Size = %d, want 4", tab.Size())
	}
}

// holds reports whether the table currently stores id.
func holds(t *Table, id overlay.ID) bool {
	return slices.ContainsFunc(t.Contacts(), func(c Contact) bool { return c.ID == id })
}

func TestTableRemove(t *testing.T) {
	g := sim.NewRNG(2)
	self := overlay.RandomID(g)
	tab := NewTable(self, 8)
	c := Contact{ID: overlay.RandomID(g)}
	tab.Add(c)
	if !holds(tab, c.ID) {
		t.Fatal("contact missing after Add")
	}
	tab.Remove(c.ID)
	if holds(tab, c.ID) {
		t.Fatal("contact present after Remove")
	}
	tab.Remove(c.ID) // removing absent contact is a no-op
}

// A fresh table holds no bucket array; Add grows it to the highest bucket
// filled. A Rejoin-style reset keeps every bucket's storage, so re-adding
// the same contacts allocates nothing and rebuilds the same table.
func TestTableBucketsOnDemand(t *testing.T) {
	g := sim.NewRNG(43)
	self := overlay.RandomID(g)
	tab := NewTable(self, 8)
	if cap(tab.buckets) >= overlay.IDBits+1 {
		t.Fatalf("a fresh table holds %d bucket slots, want fewer than %d", cap(tab.buckets), overlay.IDBits+1)
	}
	contacts := make([]Contact, 300)
	top := 0
	for i := range contacts {
		id := overlay.RandomID(g)
		if i%2 == 1 {
			id = clusteredID(g, self)
		}
		contacts[i] = Contact{ID: id, Addr: netmodel.NodeID(i)}
		if tab.Add(contacts[i]) {
			top = max(top, overlay.CommonPrefixLen(self, contacts[i].ID))
		}
	}
	if len(tab.buckets) != top+1 {
		t.Fatalf("%d bucket slots after filling up to bucket %d, want %d", len(tab.buckets), top, top+1)
	}
	before := tab.Contacts()
	if allocs := testing.AllocsPerRun(20, func() {
		tab.reset()
		for _, c := range contacts {
			tab.Add(c)
		}
	}); allocs != 0 {
		t.Fatalf("reset and re-adding the same contacts allocates %.1f objects, want 0", allocs)
	}
	if !slices.Equal(tab.Contacts(), before) {
		t.Fatal("reset and re-adding the same contacts built a different table")
	}
}

// Filling buckets in ascending order, one new highest bucket per Add, must
// not reallocate the bucket array per Add: its capacity doubles, so the
// IDBits buckets cost 1 + ceil(log2(IDBits)) arrays (9 for 160 bits), and
// its length stays one past the highest bucket filled.
func TestTableBucketArrayGrowth(t *testing.T) {
	self := overlay.RandomID(sim.NewRNG(44))
	tab := NewTable(self, 8)
	reallocs, prevCap := 0, cap(tab.buckets)
	for i := 0; i < overlay.IDBits; i++ {
		b := self.Bytes()
		b[i/8] ^= 0x80 >> (i % 8) // the first bit that differs from self is bit i
		if !tab.Add(Contact{ID: overlay.FromBytes(b), Addr: netmodel.NodeID(i)}) {
			t.Fatalf("Add into empty bucket %d failed", i)
		}
		if len(tab.buckets) != i+1 {
			t.Fatalf("%d bucket slots after filling bucket %d, want %d", len(tab.buckets), i, i+1)
		}
		if c := cap(tab.buckets); c != prevCap {
			reallocs, prevCap = reallocs+1, c
		}
	}
	if want := 1 + bits.Len(uint(overlay.IDBits-1)); reallocs != want {
		t.Fatalf("filling %d buckets in ascending order reallocated the bucket array %d times, want %d",
			overlay.IDBits, reallocs, want)
	}
}

func TestTableClosestOrdering(t *testing.T) {
	g := sim.NewRNG(3)
	self := overlay.RandomID(g)
	tab := NewTable(self, 20)
	for i := 0; i < 50; i++ {
		tab.Add(Contact{ID: overlay.RandomID(g), Addr: netmodel.NodeID(i)})
	}
	target := overlay.RandomID(g)
	got := tab.Closest(target, 10)
	if len(got) != 10 {
		t.Fatalf("Closest returned %d, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if overlay.CloserXOR(target, got[i].ID, got[i-1].ID) {
			t.Fatal("Closest not sorted by XOR distance")
		}
	}
	if tab.Closest(target, 0) != nil {
		t.Fatal("Closest(0) should be nil")
	}
}

// Property: a bucket never exceeds k and never stores the owner.
func TestPropertyTableInvariants(t *testing.T) {
	g := sim.NewRNG(4)
	self := overlay.RandomID(g)
	f := func(ids [][overlay.IDBytes]byte) bool {
		tab := NewTable(self, 4)
		for _, raw := range ids {
			tab.Add(Contact{ID: overlay.FromBytes(raw)})
		}
		for _, b := range tab.buckets {
			if len(b) > 4 {
				return false
			}
		}
		return !holds(tab, self)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// convergence is the lookup-convergence scenario: 300 nodes, 30 lookups
// from stream-drawn origins toward stream-drawn targets. With every node responsive, all but at most one
// lookup must converge on the globally closest node; with an unresponsive
// population, queries must time out. Either way the network-wide RPC count
// equals the sum over the per-lookup results (and the timeout count is at
// least their sum), which it returns in issue order.
func convergence(t *testing.T, unresponsive float64) []Result {
	t.Helper()
	const nodes, lookups = 300, 30
	cfg := Config{K: 8, Alpha: 3, RPCTimeout: time.Second, UnresponsiveFrac: unresponsive}
	s := sim.New(sim.WithSeed(42))
	nw := NewNetwork(s, netmodel.New(s, netmodel.WithJitter(0.1)), cfg)
	for i := 0; i < nodes; i++ {
		nw.AddNode(netmodel.Europe)
	}
	if err := nw.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	targets := make([]overlay.ID, lookups)
	results := make([]Result, lookups)
	for i := range targets {
		targets[i] = overlay.RandomID(s.Stream("targets"))
		origin := nw.Nodes()[s.Stream("origins").Intn(nodes)]
		nw.Lookup(origin, targets[i], func(r Result) { results[i] = r })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	timeouts, misses := 0, 0
	for i, r := range results {
		timeouts += r.Timeouts
		truth := nw.ClosestOnline(targets[i], 1)[0]
		found := false
		for _, c := range r.Closest {
			found = found || c.ID == truth.ID
		}
		if !r.Converged || !found {
			misses++
		}
	}
	if unresponsive == 0 && misses > 1 {
		t.Fatalf("%d/%d lookups missed the globally closest node", misses, lookups)
	}
	if unresponsive > 0 && timeouts == 0 {
		t.Fatalf("no query timed out with %.0f%% unresponsive nodes", 100*unresponsive)
	}
	return results
}

func TestLookupFindsGlobalClosest(t *testing.T) {
	convergence(t, 0)
	convergence(t, 0.3)
}

func TestLookupLatencyReasonable(t *testing.T) {
	s, nw := newDeployment(t, 500, Config{K: 8, Alpha: 3, RPCTimeout: 2 * time.Second, UnresponsiveFrac: 0}, 7)
	var lat []time.Duration
	for i := 0; i < 20; i++ {
		origin := nw.Nodes()[i]
		nw.Lookup(origin, overlay.RandomID(s.Stream("t")), func(r Result) {
			lat = append(lat, r.Latency)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(lat) != 20 {
		t.Fatalf("only %d lookups completed", len(lat))
	}
	for _, d := range lat {
		// All-responsive EU-only network: a few round trips, never minutes.
		if d > 3*time.Second {
			t.Fatalf("lookup latency %v unreasonably high without timeouts", d)
		}
	}
}

func TestUnresponsiveNodesCauseTimeouts(t *testing.T) {
	sResp, nwResp := newDeployment(t, 300, Config{K: 8, Alpha: 3, RPCTimeout: time.Second, UnresponsiveFrac: 0}, 9)
	sDead, nwDead := newDeployment(t, 300, Config{K: 8, Alpha: 3, RPCTimeout: time.Second, UnresponsiveFrac: 0.5}, 9)

	run := func(s *sim.Sim, nw *Network) (totalLatency time.Duration, timeouts int) {
		for i := 0; i < 20; i++ {
			nw.Lookup(nw.Nodes()[i], overlay.RandomID(s.Stream("t")), func(r Result) {
				totalLatency += r.Latency
				timeouts += r.Timeouts
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return totalLatency, timeouts
	}
	respLat, _ := run(sResp, nwResp)
	deadLat, deadTimeouts := run(sDead, nwDead)
	if deadLat < 2*respLat {
		t.Fatalf("unresponsive population should slow lookups: responsive=%v dead=%v", respLat, deadLat)
	}
	if deadTimeouts == 0 {
		t.Fatal("expected timeouts with 50% unresponsive nodes")
	}
}

func TestLookupFromOfflineOrigin(t *testing.T) {
	s, nw := newDeployment(t, 50, Config{UnresponsiveFrac: 0}, 3)
	n := nw.Nodes()[0]
	nw.SetOnline(n, false)
	var got *Result
	nw.Lookup(n, overlay.RandomID(s.Stream("t")), func(r Result) { got = &r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil {
		t.Fatal("done callback never fired")
	}
	if got.Converged || len(got.Closest) != 0 {
		t.Fatal("offline origin should yield empty non-converged result")
	}
}

func TestRejoinRepopulatesTable(t *testing.T) {
	s, nw := newDeployment(t, 200, Config{K: 8, UnresponsiveFrac: 0}, 5)
	n := nw.Nodes()[0]
	nw.SetOnline(n, false)
	rejoined := false
	s.After(time.Minute, func() {
		nw.Rejoin(n, func() { rejoined = true })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rejoined {
		t.Fatal("Rejoin callback never fired")
	}
	if !n.Online() {
		t.Fatal("node offline after Rejoin")
	}
	if n.Table().Size() < 5 {
		t.Fatalf("rejoined table has only %d contacts", n.Table().Size())
	}
}

func TestSenderLearning(t *testing.T) {
	s, nw := newDeployment(t, 100, Config{K: 8, UnresponsiveFrac: 0}, 12)
	origin := nw.Nodes()[0]
	// After a lookup, some queried nodes should have learned the origin.
	nw.Lookup(origin, overlay.RandomID(s.Stream("t")), nil)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	learned := 0
	for _, n := range nw.Nodes()[1:] {
		if holds(n.Table(), origin.ID) {
			learned++
		}
	}
	if learned == 0 {
		t.Fatal("no node learned the requester — sybil poisoning vector missing")
	}
}

func TestMaliciousPoisonedResponses(t *testing.T) {
	s, nw := newDeployment(t, 100, Config{K: 8, Alpha: 3, UnresponsiveFrac: 0}, 21)
	target := overlay.RandomID(s.Stream("atk"))
	// Attacker mints ids adjacent to the target and cross-references them.
	var atkContacts []Contact
	for i := 0; i < 8; i++ {
		id := target.Bytes()
		id[19] ^= byte(i + 1)
		mal := nw.AddMaliciousNode(netmodel.Europe, overlay.FromBytes(id), func(overlay.ID) []Contact { return atkContacts })
		atkContacts = append(atkContacts, Contact{ID: mal.ID, Addr: mal.Addr})
	}
	// Announcement phase: each attacker looks up the target, so honest
	// nodes near the target learn the attacker via sender learning (their
	// high-CPL buckets are sparse and accept the entries).
	for _, a := range atkContacts {
		mal := nw.byAddr[a.Addr]
		honest := nw.Nodes()[s.Stream("seed").Intn(100)]
		mal.Table().Add(Contact{ID: honest.ID, Addr: honest.Addr})
		nw.Lookup(mal, target, nil)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run (announce): %v", err)
	}
	origin := nw.Nodes()[0]
	var res Result
	nw.Lookup(origin, target, func(r Result) { res = r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Closest) == 0 {
		t.Fatal("lookup returned nothing")
	}
	malicious := 0
	for _, c := range res.Closest {
		for _, a := range atkContacts {
			if c.ID == a.ID {
				malicious++
				break
			}
		}
	}
	if malicious < len(res.Closest)/2 {
		t.Fatalf("eclipse failed: %d/%d result entries malicious", malicious, len(res.Closest))
	}
}

func TestPresetConfigs(t *testing.T) {
	kad := KADConfig().withDefaults()
	mdht := MDHTConfig().withDefaults()
	if kad.RPCTimeout >= mdht.RPCTimeout {
		t.Fatal("KAD must have tighter timeouts than MDHT")
	}
	if kad.UnresponsiveFrac >= mdht.UnresponsiveFrac {
		t.Fatal("MDHT must have more unresponsive nodes")
	}
}

func TestBootstrapNeedsTwoNodes(t *testing.T) {
	s := sim.New()
	nm := netmodel.New(s)
	nw := NewNetwork(s, nm, Config{})
	nw.AddNode(netmodel.Europe)
	if err := nw.Bootstrap(); err == nil {
		t.Fatal("Bootstrap with one node should error")
	}
}
