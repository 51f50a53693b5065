package netmodel

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func benchNetObs(nodes, traceLimit int) (*sim.Sim, *Net, []NodeID, *obs.Collector) {
	var opts []obs.Option
	if traceLimit > 0 {
		opts = append(opts, obs.WithTrace(traceLimit))
	}
	col := obs.NewCollector(opts...)
	s := sim.New(sim.WithSeed(1), sim.WithObserver(col))
	n := New(s)
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = n.AddNode(Region(i%NumRegions+1), 0)
	}
	return s, n, ids, col
}

func TestObserveCountsTraffic(t *testing.T) {
	s, n, ids, col := benchNetObs(4, 0)
	delivered := 0
	for i := 0; i < 10; i++ {
		if !n.Send(ids[0], ids[1], 100, func() { delivered++ }) {
			t.Fatal("send refused")
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := col.Snapshot()
	got := map[string]uint64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Total
	}
	if got["net.msgs_sent"] != 10 || got["net.msgs_delivered"] != 10 {
		t.Fatalf("sent/delivered = %d/%d, want 10/10", got["net.msgs_sent"], got["net.msgs_delivered"])
	}
	var hist obs.HistSnap
	for _, h := range snap.Hists {
		if h.Name == "net.delivery_delay_ns" {
			hist = h
		}
	}
	if hist.Count != 10 || hist.Min <= 0 {
		t.Fatalf("delay histogram = %+v, want 10 positive samples", hist)
	}
	if snap.Sim.Fired != 10 {
		t.Fatalf("kernel fired = %d, want 10", snap.Sim.Fired)
	}
	// Region lanes: the receiver (node 1) is in region EU (index 2).
	for _, c := range snap.Counters {
		if c.Name != "net.msgs_delivered" {
			continue
		}
		if len(c.Lanes) != 1 || c.Lanes[0].Region != "EU" {
			t.Fatalf("delivered lanes = %+v, want one EU lane", c.Lanes)
		}
	}
}

func TestObserveClassifiesDrops(t *testing.T) {
	s, n, ids, col := benchNetObs(4, 0)
	// Offline receiver at admission.
	n.SetUp(ids[1], false)
	n.Send(ids[0], ids[1], 10, func() {})
	n.SetUp(ids[1], true)
	// Partitioned pair at admission.
	n.Partition(map[NodeID]int{ids[2]: 1})
	n.Send(ids[0], ids[2], 10, func() {})
	n.Heal()
	// In-flight drops: the receiver goes down after Send and after
	// Broadcast, before either delivers.
	n.Send(ids[0], ids[3], 10, func() { t.Error("delivered to a dead node") })
	heard := 0
	n.Broadcast(ids[0], 10, func(to NodeID) {
		if to == ids[3] {
			t.Error("broadcast delivered to a dead node")
		}
		heard++
	})
	n.SetUp(ids[3], false)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if heard != 2 {
		t.Fatalf("broadcast reached %d live receivers, want 2", heard)
	}
	// Loss drop: force certain loss.
	n.SetLoss(1)
	n.Send(ids[0], ids[1], 10, func() {})
	snap := col.Snapshot()
	got := map[string]uint64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Total
	}
	want := map[string]uint64{
		"net.drop_down": 1, "net.drop_partition": 1,
		"net.drop_in_flight": 2, "net.drop_loss": 1,
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("%s = %d, want %d (all: %v)", name, got[name], w, got)
		}
	}
}

func TestObserveTracesWindowEdges(t *testing.T) {
	s, n, ids, col := benchNetObs(2, 100)
	if err := n.ScheduleOutageWindow(time.Second, 2*time.Second, ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleLossWindow(3*time.Second, 4*time.Second, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := n.SchedulePartitionWindow(5*time.Second, 6*time.Second, map[NodeID]int{ids[1]: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := col.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"outage.start", "outage.end", "loss.start", "loss.end",
		"partition.start", "partition.end",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(`"name":"`+name+`"`)) {
			t.Fatalf("trace lacks %s instant:\n%s", name, buf.String())
		}
	}
}

// TestObserveDeterministic pins the telemetry-on determinism contract: two
// identical runs produce identical snapshots and byte-identical traces.
func TestObserveDeterministic(t *testing.T) {
	run := func() (obs.Snapshot, []byte) {
		s, n, ids, col := benchNetObs(8, 1000)
		n.SetLoss(0.2)
		deliver := func(NodeID) {}
		for round := 0; round < 5; round++ {
			n.Broadcast(ids[round%8], 1000, deliver)
			if err := s.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := col.Trace().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return col.Snapshot(), buf.Bytes()
	}
	snapA, traceA := run()
	snapB, traceB := run()
	if !reflect.DeepEqual(snapA, snapB) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", snapA, snapB)
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("traces differ between identical runs")
	}
}

// TestSendTelemetryOnZeroAllocs proves the counters+histogram path (no
// trace) also allocates nothing once lanes are sealed — telemetry overhead
// is pure arithmetic.
func TestSendTelemetryOnZeroAllocs(t *testing.T) {
	s, n, ids, _ := benchNetObs(2, 0)
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
		t.Fatalf("telemetry-on Send allocates %.1f per batch, want 0", avg)
	}
}

// BenchmarkTransportSendTelemetryOn is the telemetry-overhead row CI
// compares against BenchmarkTransportSend: same loop with counters and the
// delay histogram live.
func BenchmarkTransportSendTelemetryOn(b *testing.B) {
	s, n, ids, _ := benchNetObs(2, 0)
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

// BenchmarkTransportBroadcastTelemetryOn mirrors BenchmarkTransportBroadcast
// with telemetry live.
func BenchmarkTransportBroadcastTelemetryOn(b *testing.B) {
	s, n, ids, _ := benchNetObs(64, 0)
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
