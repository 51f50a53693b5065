package netmodel

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The transport's hot path contract: once the kernel's event pool and the
// heap's backing array are warm, Send and Broadcast schedule and deliver
// without allocating. These benchmarks (and the AllocsPerRun tests pinning
// the same property) are exported to CI as BENCH_transport.json.

func benchNet(nodes int) (*sim.Sim, *Net, []NodeID) {
	s := sim.New(sim.WithSeed(1))
	n := New(s)
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = n.AddNode(Region(i%NumRegions+1), 0)
	}
	return s, n, ids
}

func BenchmarkTransportSend(b *testing.B) {
	s, n, ids := benchNet(2)
	deliver := func() {}
	// Warm the event pool and heap.
	for i := 0; i < 64; i++ {
		n.Send(ids[0], ids[1], 100, deliver)
	}
	if err := s.Run(); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(ids[0], ids[1], 100, deliver)
		if err := s.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

func BenchmarkTransportBroadcast(b *testing.B) {
	s, n, ids := benchNet(64)
	deliver := func(NodeID) {}
	n.Broadcast(ids[0], 1000, deliver)
	if err := s.Run(); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Broadcast(ids[0], 1000, deliver)
		if err := s.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

func TestSendSteadyStateZeroAllocs(t *testing.T) {
	s, n, ids := benchNet(2)
	deliver := func() {}
	for i := 0; i < 64; i++ {
		n.Send(ids[0], ids[1], 100, deliver)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			if !n.Send(ids[0], ids[1], 100, deliver) {
				t.Fatal("send refused")
			}
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Send allocates %.1f per batch, want 0", avg)
	}
}

func TestBroadcastSteadyStateZeroAllocs(t *testing.T) {
	s, n, ids := benchNet(32)
	deliver := func(NodeID) {}
	n.Broadcast(ids[0], 1000, deliver)
	if err := s.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if n.Broadcast(ids[0], 1000, deliver) != 31 {
			t.Fatal("broadcast did not reach everyone")
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Broadcast allocates %.1f per round, want 0", avg)
	}
}

// warmCall returns one answered exchange, run to completion, with serve and
// done bound once as an overlay's pooled RPC passes them; it has run once.
func warmCall(tb testing.TB) func() {
	s, n, ids := benchNet(2)
	answered := 0
	serve := func() bool { return true }
	done := func(ok bool) {
		if ok {
			answered++
		}
	}
	call := func() {
		n.Call(ids[0], ids[1], 40, 120, time.Second, serve, done)
		if err := s.Run(); err != nil {
			tb.Fatalf("Run: %v", err)
		}
	}
	call()
	if answered != 1 {
		tb.Fatal("the warm-up exchange was not answered")
	}
	return call
}

func BenchmarkTransportCall(b *testing.B) {
	call := warmCall(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

func TestCallSteadyStateAllocs(t *testing.T) {
	call := warmCall(t)
	if avg := testing.AllocsPerRun(200, call); avg != 0 {
		t.Fatalf("a warm answered Call allocates %.1f, want 0", avg)
	}
}

// BenchmarkTransportSendLossy exercises the admission path with loss and
// partitions enabled so the non-trivial checks stay on the profile.
func BenchmarkTransportSendLossy(b *testing.B) {
	s, n, ids := benchNet(2)
	n.SetLoss(0.1)
	deliver := func() {}
	for i := 0; i < 64; i++ {
		n.Send(ids[0], ids[1], 100, deliver)
	}
	if err := s.Run(); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(ids[0], ids[1], 100, deliver)
		if err := s.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}
