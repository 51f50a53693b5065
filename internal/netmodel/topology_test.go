package netmodel

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestMixPresets(t *testing.T) {
	for i := 1; i <= NumMixPresets; i++ {
		mix, err := MixPreset(i)
		if err != nil {
			t.Fatalf("MixPreset(%d): %v", i, err)
		}
		americas, elsewhere := false, false
		for _, rw := range mix {
			if rw.Weight <= 0 {
				t.Errorf("preset %d: region %s has non-positive weight", i, rw.Region)
			}
			if rw.Region == NorthAmerica || rw.Region == SouthAmerica {
				americas = true
			} else {
				elsewhere = true
			}
		}
		if !americas || !elsewhere {
			t.Errorf("preset %d does not straddle the Atlantic cut", i)
		}
	}
	if _, err := MixPreset(0); err == nil {
		t.Fatal("preset 0 should be rejected (reserved for 'off')")
	}
	if _, err := MixPreset(NumMixPresets + 1); err == nil {
		t.Fatal("out-of-range preset accepted")
	}
}

func TestBuildTopologyExactProportions(t *testing.T) {
	_, n := newNet(t)
	ids, err := n.BuildTopology(TopologySpec{
		Nodes: 20,
		Mix:   []RegionWeight{{Europe, 0.5}, {Asia, 0.25}, {NorthAmerica, 0.25}},
	})
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	if len(ids) != 20 || n.Size() != 20 {
		t.Fatalf("built %d ids over %d nodes, want 20", len(ids), n.Size())
	}
	counts := make(map[Region]int)
	for _, id := range ids {
		counts[n.Region(id)]++
	}
	if counts[Europe] != 10 || counts[Asia] != 5 || counts[NorthAmerica] != 5 {
		t.Fatalf("region counts = %v, want exact weighted apportionment", counts)
	}
}

func TestBuildTopologyLargestRemainder(t *testing.T) {
	_, n := newNet(t)
	// 7 nodes at weights 0.5/0.3/0.2: floors are 3/2/1 (6 assigned), and
	// the leftover seat goes to the largest remainder (EU: 3.5 -> 0.5).
	ids, err := n.BuildTopology(TopologySpec{
		Nodes: 7,
		Mix:   []RegionWeight{{Europe, 0.5}, {Asia, 0.3}, {NorthAmerica, 0.2}},
	})
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	counts := make(map[Region]int)
	for _, id := range ids {
		counts[n.Region(id)]++
	}
	if counts[Europe] != 4 || counts[Asia] != 2 || counts[NorthAmerica] != 1 {
		t.Fatalf("region counts = %v, want EU:4 AS:2 NA:1", counts)
	}
}

func TestBuildTopologyDeterministic(t *testing.T) {
	build := func() []Region {
		s := sim.New(sim.WithSeed(42))
		n := New(s)
		ids, err := n.BuildTopology(TopologySpec{Nodes: 30})
		if err != nil {
			t.Fatalf("BuildTopology: %v", err)
		}
		out := make([]Region, len(ids))
		for i, id := range ids {
			out[i] = n.Region(id)
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d region differs across identical seeds: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestBuildTopologyBandwidthClasses(t *testing.T) {
	_, n := newNet(t)
	ids, err := n.BuildTopology(TopologySpec{
		Nodes: 50,
		Classes: []BandwidthClass{
			{Name: "fiber", UplinkBps: 100e6, DownlinkBps: 100e6, Weight: 0.5},
			{Name: "adsl", UplinkBps: 1e6, DownlinkBps: 16e6, Weight: 0.5},
		},
	})
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	tiers := make(map[time.Duration]int)
	for _, id := range ids {
		tiers[n.TransferTime(id, -1, 1_000_000)]++ // uplink-only serialization
	}
	if len(tiers) != 2 {
		t.Fatalf("distinct uplink tiers = %d, want 2 (fiber + adsl)", len(tiers))
	}
	if tiers[80*time.Millisecond] == 0 || tiers[8*time.Second] == 0 {
		t.Fatalf("tier histogram = %v, want both 100Mbit and 1Mbit uplinks present", tiers)
	}
}

func TestBuildTopologyValidation(t *testing.T) {
	_, n := newNet(t)
	if _, err := n.BuildTopology(TopologySpec{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := n.BuildTopology(TopologySpec{Nodes: 5, Mix: []RegionWeight{{Region(99), 1}}}); err == nil {
		t.Fatal("invalid region accepted")
	}
	if _, err := n.BuildTopology(TopologySpec{Nodes: 5, Mix: []RegionWeight{{Europe, 0}}}); err == nil {
		t.Fatal("zero total weight accepted")
	}
	if _, err := n.BuildTopology(TopologySpec{Nodes: 5, Mix: []RegionWeight{{Europe, -1}, {Asia, 2}}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := n.BuildTopology(TopologySpec{
		Nodes:   5,
		Classes: []BandwidthClass{{Name: "x", Weight: 0}},
	}); err == nil {
		t.Fatal("zero class weight accepted")
	}
}

func TestBroadcastReachesEveryoneOnce(t *testing.T) {
	singleKernel(t, func(t *testing.T) {
		s, n := newNet(t, WithJitter(0))
		ids, err := n.BuildTopology(TopologySpec{Nodes: 10})
		if err != nil {
			t.Fatalf("BuildTopology: %v", err)
		}
		got := make(map[NodeID]int)
		scheduled := n.Broadcast(ids[0], 100, func(to NodeID) { got[to]++ })
		if scheduled != 9 {
			t.Fatalf("scheduled %d deliveries, want 9", scheduled)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(got) != 9 {
			t.Fatalf("delivered to %d nodes, want 9", len(got))
		}
		for id, c := range got {
			if c != 1 {
				t.Fatalf("node %d received %d copies, want 1", id, c)
			}
		}
		if got[ids[0]] != 0 {
			t.Fatal("origin delivered to itself")
		}
	})
}

func TestBroadcastSerializesOnUplink(t *testing.T) {
	singleKernel(t, func(t *testing.T) {
		s, n := newNet(t, WithJitter(0))
		from := n.AddNode(Europe, 8e6) // 1 MB -> 1 s per copy
		n.AddNode(Europe, 0)
		n.AddNode(Europe, 0)
		var times []time.Duration
		n.Broadcast(from, 1_000_000, func(to NodeID) { times = append(times, s.Now()) })
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(times) != 2 {
			t.Fatalf("deliveries = %d, want 2", len(times))
		}
		// First copy: 1 s transfer + 15 ms EU latency; second queues behind it.
		if times[0] != time.Second+15*time.Millisecond {
			t.Fatalf("first delivery at %v, want 1.015s", times[0])
		}
		if times[1] != 2*time.Second+15*time.Millisecond {
			t.Fatalf("second delivery at %v, want 2.015s (uplink serialization)", times[1])
		}
	})
}

func TestBroadcastRespectsPartitionAndLoss(t *testing.T) {
	singleKernel(t, func(t *testing.T) {
		s, n := newNet(t, WithJitter(0))
		a := n.AddNode(Europe, 0)
		b := n.AddNode(Europe, 0)
		c := n.AddNode(Asia, 0)
		n.Partition(map[NodeID]int{a: 0, b: 0, c: 1})
		reached := make(map[NodeID]bool)
		if got := n.Broadcast(a, 10, func(to NodeID) { reached[to] = true }); got != 1 {
			t.Fatalf("scheduled %d deliveries across a partition, want 1", got)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !reached[b] || reached[c] {
			t.Fatalf("reached = %v, want only the same-partition peer", reached)
		}
		n.Heal()
		n.SetLoss(1)
		if got := n.Broadcast(a, 10, func(NodeID) {}); got != 0 {
			t.Fatalf("scheduled %d deliveries at 100%% loss, want 0", got)
		}
		if n.Broadcast(NodeID(99), 10, func(NodeID) {}) != 0 {
			t.Fatal("broadcast from unknown node scheduled deliveries")
		}
		if n.Broadcast(a, 10, nil) != 0 {
			t.Fatal("broadcast with nil deliver scheduled deliveries")
		}
	})
}

// TestBroadcastLossStillChargesUplink pins that a copy lost in flight
// still occupied its uplink serialization slot: the surviving receiver
// behind it is NOT delivered earlier than on a lossless link.
func TestBroadcastLossStillChargesUplink(t *testing.T) {
	timeTo := func(loss float64) time.Duration {
		s := sim.New(sim.WithSeed(7))
		n := New(s, WithJitter(0))
		from := n.AddNode(Europe, 8e6) // 1 MB -> 1 s per copy
		n.AddNode(Europe, 0)
		last := n.AddNode(Europe, 0)
		n.SetLoss(loss)
		var at time.Duration
		n.Broadcast(from, 1_000_000, func(to NodeID) {
			if to == last {
				at = s.Now()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return at
	}
	// Seed 7's first loss draw at p=0.5 drops the middle receiver; the
	// last receiver must still wait both uplink slots (2s + 15ms), exactly
	// as on the lossless link.
	lossless, lossy := timeTo(0), timeTo(0.5)
	if lossless != 2*time.Second+15*time.Millisecond {
		t.Fatalf("lossless last delivery at %v, want 2.015s", lossless)
	}
	if lossy != 0 && lossy < lossless {
		t.Fatalf("loss sped up delivery: %v < %v", lossy, lossless)
	}
}

func TestTransferChargesWithoutScheduling(t *testing.T) {
	s, n := newNet(t, WithJitter(0))
	a := n.AddNode(NorthAmerica, 8e6)
	b := n.AddNode(Europe, 0)
	d, ok := n.Transfer(a, b, 1_000_000)
	if !ok {
		t.Fatal("Transfer refused a valid message")
	}
	if d != time.Second+45*time.Millisecond {
		t.Fatalf("Transfer delay = %v, want 1.045s", d)
	}
	if s.Pending() != 0 {
		t.Fatalf("Transfer scheduled %d events, want 0", s.Pending())
	}
	n.Partition(map[NodeID]int{a: 0, b: 1})
	if _, ok := n.Transfer(a, b, 10); ok {
		t.Fatal("Transfer crossed a partition")
	}
	if _, ok := n.Transfer(NodeID(99), b, 10); ok {
		t.Fatal("Transfer accepted an unknown sender")
	}
}

// TestTransferDrawsLikeSend pins that Send and Transfer apply one set of
// admission rules: on identically seeded nets with jitter, loss and an
// offline node, the same message sequence is accepted or dropped alike,
// takes the same delay (for Send, delivery time minus send time) and leaves
// the same counters behind.
func TestTransferDrawsLikeSend(t *testing.T) {
	type msg struct {
		from, to NodeID
		size     int
	}
	type outcome struct {
		ok    bool
		delay time.Duration
	}
	build := func() (*sim.Sim, *Net, *obs.Collector) {
		col := obs.NewCollector()
		s := sim.New(sim.WithSeed(7), sim.WithObserver(col))
		n := New(s, WithJitter(0.3))
		n.SetLoss(0.3)
		for i := 0; i < 6; i++ {
			n.AddNodeLink(Region(i%NumRegions+1), float64(i)*1e6, float64(5-i)*1e6)
		}
		n.SetUp(4, false)
		return s, n, col
	}
	g := sim.NewRNG(3)
	msgs := make([]msg, 400)
	for i := range msgs {
		msgs[i] = msg{NodeID(g.Intn(6)), NodeID(g.Intn(6)), 1 + g.Intn(100_000)}
	}

	s, sendNet, sendCol := build()
	sent := make([]outcome, len(msgs))
	accepted := 0
	for i, m := range msgs {
		at, o := s.Now(), &sent[i]
		o.ok = sendNet.Send(m.from, m.to, m.size, func() { o.delay = s.Now() - at })
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if o.ok {
			accepted++
		}
	}
	if accepted < len(msgs)/4 || accepted > len(msgs)*3/4 {
		t.Fatalf("%d of %d sends accepted: the sequence must exercise both outcomes", accepted, len(msgs))
	}

	_, transferNet, transferCol := build()
	for i, m := range msgs {
		d, ok := transferNet.Transfer(m.from, m.to, m.size)
		if got := (outcome{ok, d}); got != sent[i] {
			t.Fatalf("message %d %+v: Transfer gave %+v, Send %+v", i, m, got, sent[i])
		}
	}
	a, b := sendCol.Snapshot(), transferCol.Snapshot()
	if !reflect.DeepEqual(a.Counters, b.Counters) || !reflect.DeepEqual(a.Hists, b.Hists) {
		t.Fatalf("counters differ:\nSend     %+v %+v\nTransfer %+v %+v", a.Counters, a.Hists, b.Counters, b.Hists)
	}
}

func TestBuildTopologyRejectsNegativeBandwidth(t *testing.T) {
	_, n := newNet(t)
	if _, err := n.BuildTopology(TopologySpec{
		Nodes:   5,
		Classes: []BandwidthClass{{Name: "adsl", UplinkBps: 1e6, DownlinkBps: -16e6, Weight: 1}},
	}); err == nil {
		t.Fatal("negative downlink accepted (would silently mean unconstrained)")
	}
	if _, err := n.BuildTopology(TopologySpec{
		Nodes:   5,
		Classes: []BandwidthClass{{Name: "x", UplinkBps: -1, Weight: 1}},
	}); err == nil {
		t.Fatal("negative uplink accepted")
	}
}
