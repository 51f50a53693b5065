package netmodel

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// The transport's hot path contract: once the kernel's event pool and the
// heap's backing array are warm, Send, Transfer, Broadcast and Call admit,
// schedule and deliver without allocating. The AllocsPerRun tests pin that
// property in every go test run; the benchmarks measure what the paths
// cost, and CI uploads their raw output as the bench-transport artifact.

// bytesPerRun is testing.AllocsPerRun's twin for bytes: the heap bytes f
// allocates per call, from runtime.MemStats.TotalAlloc over runs calls at
// GOMAXPROCS(1) after one warm-up call, truncated like AllocsPerRun. A
// slice that regrows without bound allocates too rarely to survive the
// malloc count's truncation, but its regrowths amortise to at least one
// byte per run.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return (m.TotalAlloc - before) / uint64(runs)
}

func benchNet(nodes int, opts ...Option) (*sim.Sim, *Net, []NodeID) {
	s := sim.New(sim.WithSeed(1))
	n := New(s, opts...)
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

// lossyNet is the Send path with every admission rule live: a 10 % loss
// draw, and an ambient partition that keeps both endpoints in one group so
// the group lookups run. BenchmarkTransportSendLossy and the lossy case of
// TestSendSteadyStateZeroAllocs share it.
func lossyNet() (*sim.Sim, *Net, []NodeID) {
	s, n, ids := benchNet(2)
	n.SetLoss(0.1)
	n.Partition(map[NodeID]int{ids[0]: 1, ids[1]: 1})
	return s, n, ids
}

// splitNet puts four nodes in two groups under a 20 % loss draw, so a
// Transfer along every ordered pair meets each of admit's outcomes.
func splitNet(s *sim.Sim, n *Net, ids []NodeID) (*sim.Sim, *Net, []NodeID) {
	n.SetLoss(0.2)
	n.Partition(map[NodeID]int{ids[2]: 1, ids[3]: 1})
	return s, n, ids
}

// TestSendSteadyStateZeroAllocs pins the point-to-point paths: Send on the
// kernel's one stream, with one stream per sender group (WithSenderStreams),
// through every admission rule and dropped in flight, SendFrom through every
// admission rule, and Transfer through every admission rule with telemetry
// off and on. Each run makes 16 calls along every ordered pair, so an
// allocation on only the calls one rule admits or refuses, or on only the
// messages dropped at arrival, still averages one or more per run and
// cannot round down to 0.
func TestSendSteadyStateZeroAllocs(t *testing.T) {
	deliver := func() {}
	send := func(n *Net, from, to NodeID) bool { return n.Send(from, to, 100, deliver) }
	// sendThenDown sends with both ends up and then takes the receiver
	// down. On two nodes a round ends with the first node down, so the 16
	// messages sent to it that round are dropped when they arrive.
	sendThenDown := func(n *Net, from, to NodeID) bool {
		n.SetUp(from, true)
		n.SetUp(to, true)
		ok := n.Send(from, to, 100, deliver)
		n.SetUp(to, false)
		return ok
	}
	deliverFrom := func(from, to NodeID) {}
	sendFrom := func(n *Net, from, to NodeID) bool { return n.SendFrom(from, to, 100, deliverFrom) }
	transfer := func(n *Net, from, to NodeID) bool {
		_, ok := n.Transfer(from, to, 100)
		return ok
	}
	for _, tc := range []struct {
		name string
		net  func() (*sim.Sim, *Net, []NodeID)
		op   func(n *Net, from, to NodeID) bool
	}{
		{"one stream", func() (*sim.Sim, *Net, []NodeID) { return benchNet(2) }, send},
		{"sender streams", func() (*sim.Sim, *Net, []NodeID) {
			return benchNet(2, WithSenderStreams([]*sim.RNG{sim.NewRNG(1), sim.NewRNG(2), sim.NewRNG(3)}))
		}, send},
		{"lossy", lossyNet, send},
		{"dropped in flight", func() (*sim.Sim, *Net, []NodeID) { return benchNet(2) }, sendThenDown},
		{"send from, lossy", lossyNet, sendFrom},
		{"transfer", func() (*sim.Sim, *Net, []NodeID) { return splitNet(benchNet(4)) }, transfer},
		{"transfer, telemetry on", func() (*sim.Sim, *Net, []NodeID) {
			s, n, ids, _ := benchNetObs(4, 0)
			return splitNet(s, n, ids)
		}, transfer},
	} {
		name := tc.name
		s, n, ids := tc.net()
		var admitted, refused int
		round := func() {
			for i := 0; i < 16; i++ {
				for _, from := range ids {
					for _, to := range ids {
						if from == to {
							continue
						}
						if tc.op(n, from, to) {
							admitted++
						} else {
							refused++
						}
					}
				}
			}
			if err := s.Run(); err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
		}
		round() // warm the event pool and the heap
		if avg := testing.AllocsPerRun(200, round); avg != 0 {
			t.Fatalf("%s: steady-state calls allocate %.1f per run, want 0", name, avg)
		}
		if b := bytesPerRun(200, round); b != 0 {
			t.Fatalf("%s: steady-state calls allocate %d bytes per run, want 0", name, b)
		}
		if lossy := n.loss > 0; admitted == 0 || (refused > 0) != lossy {
			t.Fatalf("%s: %d admitted, %d refused at loss %.1f", name, admitted, refused, n.loss)
		}
	}
}

// TestBroadcastSteadyStateZeroAllocs pins Broadcast with telemetry off and
// on, and through both of its drop branches: the third case takes one
// receiver down, partitions another off and sets a 20 % loss. Each run
// broadcasts from four senders to 31 receivers apiece, so each branch
// runs several times per run.
func TestBroadcastSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		net   func() (*sim.Sim, *Net, []NodeID)
		reach int // the receivers each sender's copies may reach
	}{
		{"telemetry off", func() (*sim.Sim, *Net, []NodeID) { return benchNet(32) }, 31},
		{"telemetry on", func() (*sim.Sim, *Net, []NodeID) {
			s, n, ids, _ := benchNetObs(32, 0)
			return s, n, ids
		}, 31},
		{"admission and loss drops", func() (*sim.Sim, *Net, []NodeID) {
			s, n, ids := benchNet(32)
			n.SetUp(ids[31], false)
			n.Partition(map[NodeID]int{ids[30]: 1})
			n.SetLoss(0.2)
			return s, n, ids
		}, 29},
	} {
		name := tc.name
		s, n, ids := tc.net()
		deliver := func(NodeID) {}
		lost := 0
		round := func() {
			for _, from := range ids[:4] {
				got := n.Broadcast(from, 1000, deliver)
				if got > tc.reach || (n.loss == 0 && got != tc.reach) {
					t.Fatalf("%s: a broadcast scheduled %d deliveries, want %d", name, got, tc.reach)
				}
				lost += tc.reach - got
			}
			if err := s.Run(); err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
		}
		round() // warm the event pool and the heap
		if avg := testing.AllocsPerRun(200, round); avg != 0 {
			t.Fatalf("%s: steady-state Broadcast allocates %.1f per run, want 0", name, avg)
		}
		if b := bytesPerRun(200, round); b != 0 {
			t.Fatalf("%s: steady-state Broadcast allocates %d bytes per run, want 0", name, b)
		}
		if (lost > 0) != (n.loss > 0) {
			t.Fatalf("%s: %d copies lost at loss %.1f", name, lost, n.loss)
		}
	}
}

// warmCall returns one answered exchange, run to completion, with serve and
// done bound once as an overlay's pooled RPC passes them; it has run once.
func warmCall(tb testing.TB) func() {
	s, n, ids := benchNet(2)
	answered := 0
	serve := func() bool { return true }
	done := func(ok, inFlight bool) {
		if ok && !inFlight {
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

// TestCallSteadyStateAllocs pins every way an exchange can go back to the
// pool: answered, refused at admission (back at the deadline), served
// without an answer (back at the deadline) and a request delivered after
// its deadline that serve declines (back in that delivery). benchNet's two
// nodes are 45 ms ± 10 % apart, so a 10 ms deadline always expires first.
// Each case checks its outcome, including whether done reports the request
// still in flight, so a case cannot drift into another's path.
func TestCallSteadyStateAllocs(t *testing.T) {
	t.Run("answered", func(t *testing.T) {
		call := warmCall(t)
		if avg := testing.AllocsPerRun(200, call); avg != 0 {
			t.Fatalf("a warm answered Call allocates %.1f, want 0", avg)
		}
		if b := bytesPerRun(200, call); b != 0 {
			t.Fatalf("a warm answered Call allocates %d bytes, want 0", b)
		}
	})
	for _, tc := range []struct {
		name         string
		timeout      time.Duration
		down         bool // the receiver is offline, so Send refuses the request
		wantInFlight bool // done's second argument
		wantServ     int  // serves per call
	}{
		{name: "refused at admission", timeout: time.Second, down: true},
		{name: "served without an answer", timeout: time.Second, wantServ: 1},
		{name: "late request declined", timeout: 10 * time.Millisecond, wantInFlight: true, wantServ: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, n, ids := benchNet(2)
			n.SetUp(ids[1], !tc.down)
			calls, served, failed := 0, 0, 0
			serve := func() bool { served++; return false }
			done := func(ok, inFlight bool) {
				if inFlight != tc.wantInFlight {
					t.Fatalf("done reported inFlight=%t, want %t", inFlight, tc.wantInFlight)
				}
				if !ok {
					failed++
				}
			}
			call := func() {
				calls++
				n.Call(ids[0], ids[1], 40, 120, tc.timeout, serve, done)
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			}
			call()
			if avg := testing.AllocsPerRun(200, call); avg != 0 {
				t.Fatalf("a warm Call allocates %.1f, want 0", avg)
			}
			if b := bytesPerRun(200, call); b != 0 {
				t.Fatalf("a warm Call allocates %d bytes, want 0", b)
			}
			if failed != calls || served != tc.wantServ*calls || len(n.calls) != 1 {
				t.Fatalf("%d calls: %d done(false), %d serves, %d exchanges pooled; want %d, %d, 1",
					calls, failed, served, len(n.calls), calls, tc.wantServ*calls)
			}
		})
	}
}

// BenchmarkTransportSendLossy exercises the admission path with loss and
// partitions enabled so the non-trivial checks stay on the profile.
func BenchmarkTransportSendLossy(b *testing.B) {
	s, n, ids := lossyNet()
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
