package gnutella

import (
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func newFlat(t *testing.T, n int, seed int64, cfg Config) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw, err := NewNetwork(s, nm, n, cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return s, nw
}

func TestValidation(t *testing.T) {
	s := sim.New()
	if _, err := NewNetwork(s, netmodel.New(s), 2, Config{}); err == nil {
		t.Fatal("n<3 should error")
	}
}

func TestFloodFindsWidelySharedItem(t *testing.T) {
	s, nw := newFlat(t, 300, 1, Config{TTL: 7})
	// 10% of nodes share item 1.
	for i := 0; i < 30; i++ {
		nw.Share(i*10, 1)
	}
	var res QueryResult
	nw.Query(150, 1, func(r QueryResult) { res = r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatal("widely shared item not found")
	}
	if len(res.Providers) < 5 {
		t.Fatalf("found only %d providers, expected many within TTL 7", len(res.Providers))
	}
}

func TestTTLBoundsReach(t *testing.T) {
	// With TTL 1 only direct neighbours are reachable.
	s, nw := newFlat(t, 300, 2, Config{TTL: 1})
	for i := 0; i < 300; i++ {
		if i != 150 {
			nw.Share(i, 1)
		}
	}
	var res QueryResult
	nw.Query(150, 1, func(r QueryResult) { res = r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Reach = origin + neighbours + their neighbours (TTL decrements on
	// each forward), far below 299 providers.
	if len(res.Providers) > 60 {
		t.Fatalf("TTL 1 reached %d providers, expected a small neighbourhood", len(res.Providers))
	}
}

func TestRareItemOftenMissedWithSmallTTL(t *testing.T) {
	s, nw := newFlat(t, 500, 3, Config{TTL: 2})
	nw.Share(499, 1) // single provider
	misses := 0
	const tries = 10
	for i := 0; i < tries; i++ {
		nw.Query(i*7, 1, func(r QueryResult) {
			if !r.Found {
				misses++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if misses == 0 {
		t.Fatal("TTL-limited flooding should miss rare items from distant origins")
	}
}

func TestFloodTrafficScale(t *testing.T) {
	s, nw := newFlat(t, 400, 4, Config{TTL: 7})
	var res QueryResult
	nw.Query(0, 12345, func(r QueryResult) { res = r }) // item nobody has
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Flooding an item nobody shares still visits most of the graph.
	if res.Messages < 400 {
		t.Fatalf("flood generated only %d messages; expected ~n*degree/2", res.Messages)
	}
	if res.Found {
		t.Fatal("nonexistent item reported found")
	}
}

func TestUploadAccounting(t *testing.T) {
	_, nw := newFlat(t, 10, 7, Config{})
	nw.RecordDownload(3)
	nw.RecordDownload(3)
	nw.RecordDownload(7)
	if nw.uploads[3] != 2 || nw.uploads[7] != 1 {
		t.Fatal("upload counters wrong")
	}
	counts := nw.UploadCounts()
	if counts[3] != 2 {
		t.Fatal("UploadCounts copy wrong")
	}
	counts[3] = 99
	if nw.uploads[3] != 2 {
		t.Fatal("UploadCounts must be a copy")
	}
	nw.RecordDownload(-1) // no-op
	nw.RecordDownload(99) // no-op
}

func TestSharedCount(t *testing.T) {
	_, nw := newFlat(t, 10, 8, Config{})
	nw.Share(0, 1)
	nw.Share(0, 2)
	nw.Share(0, 1) // duplicate
	if len(nw.shares[0]) != 2 {
		t.Fatalf("SharedCount = %d, want 2", len(nw.shares[0]))
	}
}

// A flood settles long before queryTimeout: the query completes because no
// message is left in flight, not because the safety timeout fired.
func TestQueryCompletesWithinTimeout(t *testing.T) {
	s, nw := newFlat(t, 100, 9, Config{})
	doneAt := time.Duration(-1)
	nw.Query(0, 1, func(QueryResult) { doneAt = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if doneAt < 0 {
		t.Fatal("query never completed")
	}
	if doneAt >= queryTimeout {
		t.Fatalf("query completed at %v, not before the %v timeout", doneAt, queryTimeout)
	}
}
