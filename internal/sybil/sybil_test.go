package sybil

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/overlay/kademlia"
	"repro/internal/sim"
)

func honestNetwork(t *testing.T, n int, seed int64) (*sim.Sim, *kademlia.Network) {
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

// A poisoned reply is the 16 sybils closest to the queried target — what a
// full sort of the identity cloud by overlay.CloserXOR, cut at 16, yields —
// whether the cloud is smaller than, exactly, just over or far over 16, and
// past the 255 identities at which the targeted ids' low byte wraps.
func TestPoisonMatchesBruteForce(t *testing.T) {
	for _, identities := range []int{1, 16, 17, 300} {
		s, nw := honestNetwork(t, 50, 5)
		victim := overlay.KeyID([]byte("victim-key"))
		atk, err := Launch(s, nw, AttackConfig{Identities: identities, Targeted: true, Target: victim})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		cloud := append([]kademlia.Contact(nil), atk.contacts...)
		near := atk.contacts[identities/2].ID
		near[overlay.IDBytes-1] ^= 0x40
		for _, target := range []overlay.ID{victim, atk.contacts[0].ID, near, overlay.RandomID(s.Stream("t"))} {
			want := append([]kademlia.Contact(nil), atk.contacts...)
			sort.Slice(want, func(i, j int) bool { return overlay.CloserXOR(target, want[i].ID, want[j].ID) })
			if len(want) > 16 {
				want = want[:16]
			}
			if got := atk.poison(target); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d identities, target %v:\n got %v\nwant %v", identities, target, got, want)
			}
		}
		if !reflect.DeepEqual(atk.contacts, cloud) {
			t.Fatalf("%d identities: poison reordered the attack's own contact list", identities)
		}
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
