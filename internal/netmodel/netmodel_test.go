package netmodel

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func newNet(t *testing.T, opts ...Option) (*sim.Sim, *Net) {
	t.Helper()
	s := sim.New(sim.WithSeed(7))
	return s, New(s, opts...)
}

// testFloor windows every sharded test net: no test attaches a region
// outside the table or sets more than 20 % jitter.
var testFloor = DelayFloor(0.2, NorthAmerica, Europe, Asia, SouthAmerica, Oceania, Africa)

// shardedNet builds a transport on S logical shards and returns it with
// its driver.
func shardedNet(t *testing.T, shards, workers int, opts ...Option) (*sim.ShardedSim, *Net) {
	t.Helper()
	ss, err := sim.NewSharded(shards, testFloor, workers, sim.WithSeed(7))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return ss, NewSharded(ss, opts...)
}

// env is what a forShards body gets: net builds the transport under test on
// the subtest's shard count, after which run drives it to exhaustion.
type env struct {
	t      *testing.T
	shards int
	run    func() error
}

func (e *env) net(opts ...Option) *Net {
	if e.shards == 1 {
		s, n := newNet(e.t, opts...)
		e.run = s.Run
		return n
	}
	ss, n := shardedNet(e.t, e.shards, 1, opts...)
	e.run = ss.Run
	return n
}

// forShards runs body against the transport on a plain kernel (S = 1) and
// on four logical shards of a windowed driver. Bodies read clocks and
// schedule control events through n.Kernel(id), which is the plain kernel
// at S = 1. The S = 4 driver runs its shards inline (one worker), so a body
// may flip shared topology state mid-run just as it does on a plain kernel.
func forShards(t *testing.T, body func(t *testing.T, e *env)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) { body(t, &env{t: t, shards: shards}) })
	}
}

func TestLatencyRegions(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	_ = s
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Europe, 0)
	c := n.AddNode(Asia, 0)
	if got := n.Latency(a, b); got != 15*time.Millisecond {
		t.Fatalf("intra-EU latency = %v, want 15ms", got)
	}
	if got := n.Latency(a, c); got != 80*time.Millisecond {
		t.Fatalf("EU->AS latency = %v, want 80ms", got)
	}
	if n.Latency(a, c) != n.Latency(c, a) {
		t.Fatal("latency must be symmetric without jitter")
	}
}

func TestJitterWithinBounds(t *testing.T) {
	_, n := newNet(t, WithJitter(0.2))
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Europe, 0)
	for i := 0; i < 500; i++ {
		d := n.Latency(a, b)
		if d < 12*time.Millisecond || d > 18*time.Millisecond {
			t.Fatalf("jittered latency %v outside ±20%% of 15ms", d)
		}
	}
}

func TestTransferTime(t *testing.T) {
	_, n := newNet(t)
	a := n.AddNode(Europe, 8e6) // 8 Mbit/s => 1 MB takes 1 s
	b := n.AddNode(Europe, 0)
	if got := n.TransferTime(a, b, 1_000_000); got != time.Second {
		t.Fatalf("TransferTime = %v, want 1s", got)
	}
	if got := n.TransferTime(b, a, 1_000_000); got != 0 {
		t.Fatalf("unconstrained TransferTime = %v, want 0", got)
	}
}

func TestTransferTimeDownlink(t *testing.T) {
	_, n := newNet(t)
	a := n.AddNode(Europe, 8e6)           // 1 MB -> 1 s up
	b := n.AddNodeLink(Europe, 0, 4e6)    // 1 MB -> 2 s down
	c := n.AddNodeLink(Europe, 16e6, 1e6) // asymmetric: 0.5 s up, 8 s down
	if got := n.TransferTime(a, b, 1_000_000); got != 3*time.Second {
		t.Fatalf("uplink+downlink TransferTime = %v, want 3s", got)
	}
	if got := n.TransferTime(c, b, 1_000_000); got != 2500*time.Millisecond {
		t.Fatalf("asymmetric TransferTime = %v, want 2.5s", got)
	}
	// Receiving at c is dominated by its slow downlink.
	if got := n.TransferTime(b, c, 1_000_000); got != 8*time.Second {
		t.Fatalf("slow-downlink TransferTime = %v, want 8s", got)
	}
}

func TestSendDelivers(t *testing.T) {
	forShards(t, func(t *testing.T, e *env) {
		n := e.net(WithJitter(0))
		a := n.AddNode(NorthAmerica, 0)
		b := n.AddNode(Europe, 0)
		var deliveredAt time.Duration
		ok := n.Send(a, b, 100, func() { deliveredAt = n.Kernel(b).Now() })
		if !ok {
			t.Fatal("Send returned false")
		}
		if err := e.run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if deliveredAt != 45*time.Millisecond {
			t.Fatalf("delivered at %v, want 45ms", deliveredAt)
		}
	})
}

func TestSendToOfflineNode(t *testing.T) {
	forShards(t, func(t *testing.T, e *env) {
		n := e.net()
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Europe, 0)
		n.SetUp(b, false)
		if n.Send(a, b, 10, func() { t.Fatal("delivered to offline node") }) {
			t.Fatal("Send to offline node should return false")
		}
		if err := e.run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}

func TestReceiverGoesDownMidFlight(t *testing.T) {
	forShards(t, func(t *testing.T, e *env) {
		n := e.net()
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Asia, 0)
		delivered := false
		n.Send(a, b, 10, func() { delivered = true })
		n.Kernel(a).After(time.Millisecond, func() { n.SetUp(b, false) })
		if err := e.run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if delivered {
			t.Fatal("message delivered to node that went offline mid-flight")
		}
	})
}

func TestLoss(t *testing.T) {
	forShards(t, func(t *testing.T, e *env) {
		n := e.net()
		n.SetLoss(1.0)
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Europe, 0)
		if n.Send(a, b, 10, func() { t.Fatal("lossy link delivered") }) {
			t.Fatal("Send should report drop under 100% loss")
		}
		if _, ok := n.Transfer(a, b, 10); ok {
			t.Fatal("Transfer should report drop under 100% loss")
		}
		if err := e.run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}

func TestPartitionAndHeal(t *testing.T) {
	forShards(t, func(t *testing.T, e *env) {
		n := e.net()
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Europe, 0)
		n.Partition(map[NodeID]int{a: 0, b: 1})
		if n.Send(a, b, 10, func() {}) {
			t.Fatal("Send across partition should fail")
		}
		n.Heal()
		delivered := false
		if !n.Send(a, b, 10, func() { delivered = true }) {
			t.Fatal("Send after Heal should succeed")
		}
		if err := e.run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !delivered {
			t.Fatal("message not delivered after Heal")
		}
	})
}

func TestPartitionDropsInFlight(t *testing.T) {
	forShards(t, func(t *testing.T, e *env) {
		n := e.net()
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Asia, 0)
		delivered := false
		n.Send(a, b, 10, func() { delivered = true })
		n.Kernel(a).After(time.Millisecond, func() { n.Partition(map[NodeID]int{a: 0, b: 1}) })
		if err := e.run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if delivered {
			t.Fatal("in-flight message crossed a partition formed before delivery")
		}
	})
}

// TestInFlightDroppedByLaterPartition pins the in-flight semantics: a
// message sent BEFORE a partition (or a receiver outage) forms but due
// AFTER it must be dropped at delivery time, not delivered through the
// cut.
func TestInFlightDroppedByLaterPartition(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Asia, 0) // 80 ms one way
	delivered := 0
	if !n.Send(a, b, 10, func() { delivered++ }) {
		t.Fatal("send before the partition should be admitted")
	}
	if err := n.SchedulePartitionWindow(10*time.Millisecond, 200*time.Millisecond,
		map[NodeID]int{a: 0, b: 1}); err != nil {
		t.Fatalf("SchedulePartitionWindow: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 0 {
		t.Fatal("message sent before the partition but due after it was delivered")
	}

	// Same shape with SetUp(to, false): sent while up, down at delivery.
	delivered = 0
	if !n.Send(a, b, 10, func() { delivered++ }) {
		t.Fatal("send to an online node should be admitted")
	}
	s.After(time.Millisecond, func() { n.SetUp(b, false) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 0 {
		t.Fatal("message delivered to a receiver that went down mid-flight")
	}
}

// TestPartitionWindowNoRetroactiveDelivery pins the other half of the
// window contract: a message sent DURING a partition window is dropped at
// send time and must NOT surface after Heal; only messages sent after the
// window delivers.
func TestPartitionWindowNoRetroactiveDelivery(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Asia, 0)
	if err := n.SchedulePartitionWindow(10*time.Millisecond, 50*time.Millisecond,
		map[NodeID]int{a: 0, b: 1}); err != nil {
		t.Fatalf("SchedulePartitionWindow: %v", err)
	}
	var deliveredAt []time.Duration
	deliver := func() { deliveredAt = append(deliveredAt, s.Now()) }
	s.At(20*time.Millisecond, func() {
		if n.Send(a, b, 10, deliver) {
			t.Error("send during the partition window should be dropped at send time")
		}
	})
	s.At(60*time.Millisecond, func() {
		if !n.Send(a, b, 10, deliver) {
			t.Error("send after Heal should be admitted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(deliveredAt) != 1 {
		t.Fatalf("deliveries = %d, want exactly the post-heal send", len(deliveredAt))
	}
	if deliveredAt[0] != 140*time.Millisecond { // sent at 60ms + 80ms EU->AS
		t.Fatalf("post-heal delivery at %v, want 140ms", deliveredAt[0])
	}
}

func TestLossWindowRestoresPreviousRate(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Europe, 0)
	if err := n.ScheduleLossWindow(10*time.Millisecond, 20*time.Millisecond, 1); err != nil {
		t.Fatalf("ScheduleLossWindow: %v", err)
	}
	if err := n.ScheduleLossWindow(5*time.Millisecond, 4*time.Millisecond, 0.5); err == nil {
		t.Fatal("inverted window accepted")
	}
	if err := n.ScheduleLossWindow(30*time.Millisecond, 40*time.Millisecond, 1.5); err == nil {
		t.Fatal("out-of-range loss accepted")
	}
	if err := n.ScheduleLossWindow(30*time.Millisecond, 40*time.Millisecond, math.NaN()); err == nil {
		t.Fatal("NaN loss window accepted")
	}
	n.SetLoss(math.NaN())
	if n.loss != 0 || n.baseLoss != 0 {
		t.Fatalf("SetLoss(NaN) stored loss %g, ambient %g; want both 0", n.loss, n.baseLoss)
	}
	results := make(map[time.Duration]bool)
	probe := func(at time.Duration) {
		s.At(at, func() { results[at] = n.Send(a, b, 1, func() {}) })
	}
	probe(5 * time.Millisecond)  // before the window
	probe(15 * time.Millisecond) // inside: 100% loss
	probe(25 * time.Millisecond) // after: restored to lossless
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !results[5*time.Millisecond] || results[15*time.Millisecond] || !results[25*time.Millisecond] {
		t.Fatalf("loss window admission = %v, want open/closed/open", results)
	}
	if n.loss != 0 {
		t.Fatalf("loss after window = %g, want 0", n.loss)
	}
}

// TestOverlappingWindowsRejected pins the restore-at-end contract: two
// windows over the same state cannot interleave, because the second's
// snapshot would reinstate the first's mid-window value after both close.
func TestOverlappingWindowsRejected(t *testing.T) {
	s, n := newNet(t)
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Europe, 0)
	if err := n.ScheduleLossWindow(10*time.Millisecond, 30*time.Millisecond, 1); err != nil {
		t.Fatalf("first loss window: %v", err)
	}
	if err := n.ScheduleLossWindow(20*time.Millisecond, 40*time.Millisecond, 0.5); err == nil {
		t.Fatal("overlapping loss window accepted")
	}
	if err := n.ScheduleLossWindow(30*time.Millisecond, 40*time.Millisecond, 0.5); err != nil {
		t.Fatalf("adjacent loss window rejected: %v", err)
	}
	groups := map[NodeID]int{a: 0, b: 1}
	if err := n.SchedulePartitionWindow(10*time.Millisecond, 30*time.Millisecond, groups); err != nil {
		t.Fatalf("first partition window: %v", err)
	}
	if err := n.SchedulePartitionWindow(25*time.Millisecond, 50*time.Millisecond, groups); err == nil {
		t.Fatal("overlapping partition window accepted")
	}
	if err := n.ScheduleOutageWindow(10*time.Millisecond, 30*time.Millisecond, a); err != nil {
		t.Fatalf("first outage window: %v", err)
	}
	if err := n.ScheduleOutageWindow(20*time.Millisecond, 40*time.Millisecond, a); err == nil {
		t.Fatal("overlapping outage window for one node accepted")
	}
	// A different node's outage may overlap freely.
	if err := n.ScheduleOutageWindow(20*time.Millisecond, 40*time.Millisecond, b); err != nil {
		t.Fatalf("other-node outage window rejected: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.loss != 0 {
		t.Fatalf("loss after all windows = %g, want 0", n.loss)
	}
	if !n.nodes[a].up || !n.nodes[b].up {
		t.Fatal("nodes not restored after outage windows")
	}
}

// TestAdjacentWindowsAnyScheduleOrder pins the owner rule: when window A's
// end and window B's start land on the same instant, B's condition wins no
// matter which order the windows were scheduled in.
func TestAdjacentWindowsAnyScheduleOrder(t *testing.T) {
	for _, bFirst := range []bool{false, true} {
		s, n := newNet(t, WithJitter(0))
		n.SetLoss(0.01)
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Europe, 0)
		_, _ = a, b
		schedA := func() {
			if err := n.ScheduleLossWindow(10*time.Millisecond, 30*time.Millisecond, 1); err != nil {
				t.Fatalf("window A: %v", err)
			}
		}
		schedB := func() {
			if err := n.ScheduleLossWindow(30*time.Millisecond, 40*time.Millisecond, 0.5); err != nil {
				t.Fatalf("window B: %v", err)
			}
		}
		if bFirst {
			schedB()
			schedA()
		} else {
			schedA()
			schedB()
		}
		var atBoundary, after float64
		s.At(31*time.Millisecond, func() { atBoundary = n.loss })
		s.At(41*time.Millisecond, func() { after = n.loss })
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if atBoundary != 0.5 {
			t.Fatalf("bFirst=%v: loss inside window B = %g, want 0.5 (A's end must not clobber B)", bFirst, atBoundary)
		}
		if after != 0.01 {
			t.Fatalf("bFirst=%v: loss after both windows = %g, want ambient 0.01", bFirst, after)
		}
	}
}

func TestOutageWindow(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	b := n.AddNode(Europe, 0)
	if err := n.ScheduleOutageWindow(10*time.Millisecond, 20*time.Millisecond, b); err != nil {
		t.Fatalf("ScheduleOutageWindow: %v", err)
	}
	if err := n.ScheduleOutageWindow(10*time.Millisecond, 20*time.Millisecond, NodeID(99)); err == nil {
		t.Fatal("unknown node accepted")
	}
	up := make(map[time.Duration]bool)
	s.At(15*time.Millisecond, func() { up[15*time.Millisecond] = n.nodes[b].up })
	s.At(25*time.Millisecond, func() { up[25*time.Millisecond] = n.nodes[b].up })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if up[15*time.Millisecond] || !up[25*time.Millisecond] {
		t.Fatalf("outage window up-state = %v, want down then up", up)
	}
}

func TestInvalidIDs(t *testing.T) {
	_, n := newNet(t)
	if n.Send(NodeID(0), NodeID(1), 10, func() {}) {
		t.Fatal("Send with unknown nodes should fail")
	}
	if n.Latency(-1, 0) != 0 || n.Region(-1) != 0 {
		t.Fatal("invalid ids should degrade to zero values")
	}
}

func TestRegionString(t *testing.T) {
	tests := []struct {
		r    Region
		want string
	}{
		{NorthAmerica, "NA"},
		{Europe, "EU"},
		{Asia, "AS"},
		{SouthAmerica, "SA"},
		{Oceania, "OC"},
		{Africa, "AF"},
		{Region(99), "Region(99)"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.r), got, tt.want)
		}
	}
}

// TestNodeAddedDuringPartition pins that attaching a node while a
// partition is active neither panics nor isolates it from group 0.
func TestNodeAddedDuringPartition(t *testing.T) {
	forShards(t, func(t *testing.T, e *env) {
		n := e.net(WithJitter(0))
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Asia, 0)
		n.Partition(map[NodeID]int{a: 0, b: 1})
		c := n.AddNode(Europe, 0)
		delivered := false
		if !n.Send(a, c, 10, func() { delivered = true }) {
			t.Fatal("late-attached node should join group 0")
		}
		if n.Send(b, c, 10, func() {}) {
			t.Fatal("group-1 node reached the group-0 newcomer")
		}
		if got := n.Broadcast(a, 10, func(NodeID) {}); got != 1 {
			t.Fatalf("broadcast reached %d nodes, want 1 (the newcomer)", got)
		}
		if err := e.run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !delivered {
			t.Fatal("message to late-attached node not delivered")
		}
	})
}

// TestWindowsRestoreAmbientState pins that window ends restore the
// Partition/SetUp state the experiment holds, not a hard-coded
// "healed/up": a manually-downed node stays down past an outage window,
// and a manual partition survives a partition window's end.
func TestWindowsRestoreAmbientState(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Europe, 0)
	c := n.AddNode(Asia, 0)
	if err := n.ScheduleOutageWindow(10*time.Millisecond, 20*time.Millisecond, b); err != nil {
		t.Fatalf("ScheduleOutageWindow: %v", err)
	}
	// Ambient: b is deliberately down before the window opens.
	n.SetUp(b, false)
	if err := n.SchedulePartitionWindow(10*time.Millisecond, 20*time.Millisecond,
		map[NodeID]int{a: 0, c: 1}); err != nil {
		t.Fatalf("SchedulePartitionWindow: %v", err)
	}
	// Ambient: a manual partition isolating c, set during the window.
	s.At(15*time.Millisecond, func() { n.Partition(map[NodeID]int{a: 0, c: 2}) })
	if err := s.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.nodes[b].up {
		t.Fatal("outage window end resurrected a manually-downed node")
	}
	if !n.partitioned(a, c) {
		t.Fatal("partition window end erased the ambient partition")
	}
	// Lifting the ambient state works once no window is active.
	n.SetUp(b, true)
	n.Heal()
	if !n.nodes[b].up || n.partitioned(a, c) {
		t.Fatal("ambient state not restored by SetUp/Heal after windows")
	}
}

// TestPartitionWindowSnapshotsGroups pins that the groups map is expanded
// at schedule time: callers may reuse or mutate their map afterwards.
func TestPartitionWindowSnapshotsGroups(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a := n.AddNode(Europe, 0)
	b := n.AddNode(Asia, 0)
	groups := map[NodeID]int{a: 0, b: 1}
	if err := n.SchedulePartitionWindow(10*time.Millisecond, 20*time.Millisecond, groups); err != nil {
		t.Fatalf("SchedulePartitionWindow: %v", err)
	}
	delete(groups, b) // caller reuses the map before the window opens
	var cut bool
	s.At(15*time.Millisecond, func() { cut = n.partitioned(a, b) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cut {
		t.Fatal("window applied the mutated map instead of the scheduled snapshot")
	}
}
