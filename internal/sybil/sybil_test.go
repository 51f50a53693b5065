package sybil

import (
	"slices"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/overlay/kademlia"
	"repro/internal/sim"
)

func honestNetwork(t testing.TB, n int, seed int64) (*sim.Sim, *kademlia.Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw := kademlia.NewNetwork(s, nm, kademlia.Config{K: 8, Alpha: 3, UnresponsiveFrac: 0})
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Europe)
	}
	if err := nw.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return s, nw
}

func TestLaunchValidation(t *testing.T) {
	s, nw := honestNetwork(t, 50, 1)
	if _, err := Launch(s, nw, AttackConfig{Identities: 0}); err == nil {
		t.Fatal("zero identities should error")
	}
}

func TestTargetedEclipse(t *testing.T) {
	s, nw := honestNetwork(t, 400, 2)
	target := overlay.KeyID([]byte("victim-key"))
	atk, err := Launch(s, nw, AttackConfig{
		Identities: 16,
		Targeted:   true,
		Target:     target,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run announce: %v", err)
	}
	var stats EclipseStats
	for i := 0; i < 30; i++ {
		origin := nw.Nodes()[s.Stream("o").Intn(400)]
		if origin.Malicious() {
			continue
		}
		nw.Lookup(origin, target, func(r kademlia.Result) { stats.Record(atk, r) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run lookups: %v", err)
	}
	if stats.Lookups == 0 {
		t.Fatal("no lookups measured")
	}
	// With 16 sybils adjacent to the key, eclipse should dominate.
	if stats.ClosestRate() < 0.8 {
		t.Fatalf("ClosestRate = %v, want >= 0.8 (eclipse should own the key)", stats.ClosestRate())
	}
	if stats.MajorityRate() < 0.5 {
		t.Fatalf("MajorityRate = %v, want >= 0.5", stats.MajorityRate())
	}
}

func TestUniformSybilInterceptionGrowsWithIdentities(t *testing.T) {
	measure := func(identities int) float64 {
		s, nw := honestNetwork(t, 300, 3)
		atk, err := Launch(s, nw, AttackConfig{Identities: identities})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run announce: %v", err)
		}
		var stats EclipseStats
		for i := 0; i < 40; i++ {
			origin := nw.Nodes()[s.Stream("o").Intn(300)]
			if origin.Malicious() {
				continue
			}
			target := overlay.RandomID(s.Stream("t"))
			nw.Lookup(origin, target, func(r kademlia.Result) { stats.Record(atk, r) })
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run lookups: %v", err)
		}
		return stats.MeanAttackerFrac()
	}
	small := measure(15)  // 5% of network
	large := measure(300) // 50% of network
	if large <= small {
		t.Fatalf("attacker fraction should grow with identities: 15 ids -> %v, 300 ids -> %v", small, large)
	}
	if large < 0.3 {
		t.Fatalf("50%% sybil population intercepts only %v of result entries", large)
	}
}

// bruteNearest is the reference poison is held to: a full sort of the cloud
// by overlay.CloserXOR, stable so equal ids keep their order, cut at
// replyLen.
func bruteNearest(target overlay.ID, cloud []kademlia.Contact) []kademlia.Contact {
	all := slices.Clone(cloud)
	slices.SortStableFunc(all, func(a, b kademlia.Contact) int {
		switch {
		case overlay.CloserXOR(target, a.ID, b.ID):
			return -1
		case overlay.CloserXOR(target, b.ID, a.ID):
			return 1
		}
		return 0
	})
	return all[:min(len(all), replyLen)]
}

// flipBit returns id with bit i (0 = most significant) inverted.
func flipBit(id overlay.ID, i int) overlay.ID {
	var bit [overlay.IDBytes]byte
	bit[i/8] = 0x80 >> uint(i%8)
	return id.XOR(overlay.FromBytes(bit))
}

// A poisoned reply is the 16 sybils closest to the queried target — what a
// full sort of the identity cloud by overlay.CloserXOR, cut at 16, yields —
// for targeted clouds, whose ids share 144 bits or more, up to and past the
// 255 identities at which their low byte wraps, and for uniform clouds
// smaller than, exactly, just over and far over 16. Targets are an identity,
// that identity with one bit flipped at each word boundary of
// overlay.Distance and at both ends, the victim key and a random id.
func TestPoisonMatchesBruteForce(t *testing.T) {
	victim := overlay.KeyID([]byte("victim-key"))
	for _, tc := range []struct {
		identities int
		targeted   bool
	}{
		{1, true}, {16, true}, {17, true}, {300, true}, {512, true},
		{1, false}, {2, false}, {16, false}, {17, false}, {300, false}, {10000, false},
	} {
		s, nw := honestNetwork(t, 50, 5)
		atk, err := Launch(s, nw, AttackConfig{Identities: tc.identities, Targeted: tc.targeted, Target: victim})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		cloud := slices.Clone(atk.contacts)
		self := atk.contacts[tc.identities/2].ID
		targets := []overlay.ID{self, victim, overlay.RandomID(s.Stream("t"))}
		for _, bit := range []int{0, 63, 64, 127, 128, 159} {
			targets = append(targets, flipBit(self, bit))
		}
		for _, target := range targets {
			if got, want := atk.poison(target), bruteNearest(target, cloud); !slices.Equal(got, want) {
				t.Fatalf("%d identities (targeted %t), target %v:\n got %v\nwant %v", tc.identities, tc.targeted, target, got, want)
			}
		}
		if !slices.Equal(atk.contacts, cloud) {
			t.Fatalf("%d identities (targeted %t): poison reordered the attack's own contact list", tc.identities, tc.targeted)
		}
	}
}

// FuzzPoisonIndex holds the prefix descent to the full sort on clouds of up
// to 600 identities. A cloud is either targeted (targetedID around a random
// key: the low byte wraps past 255 identities and identity 255 is the key)
// or uniform ids forced to share their first prefix%161 bits, so long shared
// prefixes and repeated ids both occur. The target is pick%(size+2): a cloud
// member, the key, or a random id, with bit flip inverted when flip < 160.
func FuzzPoisonIndex(f *testing.F) {
	f.Add(uint64(2), false, uint16(150), uint16(40), uint16(3), uint16(155))
	f.Fuzz(func(t *testing.T, seed uint64, targeted bool, prefix, size, pick, flip uint16) {
		g := sim.NewRNG(int64(seed))
		key := overlay.RandomID(g)
		n := int(size)%600 + 1
		cloud := make([]kademlia.Contact, n)
		for i := range cloud {
			var id overlay.ID
			if targeted {
				id = targetedID(key, i)
			} else {
				id = overlay.RandomID(g)
				for b := 0; b < int(prefix)%(overlay.IDBits+1); b++ {
					if id.Bit(b) != key.Bit(b) {
						id = flipBit(id, b)
					}
				}
			}
			cloud[i] = kademlia.Contact{ID: id, Addr: netmodel.NodeID(i)}
		}
		target := overlay.RandomID(g)
		switch p := int(pick) % (n + 2); {
		case p < n:
			target = cloud[p].ID
		case p == n:
			target = key
		}
		if int(flip) < overlay.IDBits {
			target = flipBit(target, int(flip))
		}
		if got, want := appendNearest(nil, target, sortedByID(cloud)), bruteNearest(target, cloud); !slices.Equal(got, want) {
			t.Fatalf("%d identities (targeted %t, prefix %d), target %v:\n got %v\nwant %v", n, targeted, prefix, target, got, want)
		}
	})
}

// uniformAttack launches n uniform identities into a 50-node network and
// returns the attack with targets drawn from their own stream.
func uniformAttack(tb testing.TB, n int) (*Attack, []overlay.ID) {
	s, nw := honestNetwork(tb, 50, 6)
	atk, err := Launch(s, nw, AttackConfig{Identities: n})
	if err != nil {
		tb.Fatalf("Launch: %v", err)
	}
	g := sim.NewRNG(7)
	targets := make([]overlay.ID, 256)
	for i := range targets {
		targets[i] = overlay.RandomID(g)
	}
	return atk, targets
}

var benchSink int

func BenchmarkPoison(b *testing.B) {
	atk, targets := uniformAttack(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(atk.poison(targets[i%len(targets)]))
	}
}

// A reply reuses the Attack's buffer: after one warm call, poison allocates
// nothing — no copy of the cloud, no selector, no per-call result.
func TestPoisonAllocs(t *testing.T) {
	atk, targets := uniformAttack(t, 10000)
	benchSink += len(atk.poison(targets[0]))
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		benchSink += len(atk.poison(targets[i%len(targets)]))
		i++
	}); allocs != 0 {
		t.Fatalf("poison allocates %.1f objects per call, want 0", allocs)
	}
}

func TestCountAttacker(t *testing.T) {
	s, nw := honestNetwork(t, 50, 4)
	atk, err := Launch(s, nw, AttackConfig{Identities: 5})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	contacts := []kademlia.Contact{
		{ID: atk.nodes[0].ID},
		{ID: nw.Nodes()[0].ID},
	}
	if got := atk.CountAttacker(contacts); got != 1 {
		t.Fatalf("CountAttacker = %d, want 1", got)
	}
	if !atk.IsAttacker(atk.nodes[2].ID) {
		t.Fatal("IsAttacker false for attacker id")
	}
	_ = s
}

func TestEclipseStatsEmpty(t *testing.T) {
	var st EclipseStats
	if st.MajorityRate() != 0 || st.ClosestRate() != 0 || st.MeanAttackerFrac() != 0 {
		t.Fatal("empty stats must report zeros")
	}
}
