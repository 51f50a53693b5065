package netmodel

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// What more than one shard makes observable. Everything the transport does
// at any S is covered by the forShards tests; these pin the mailbox hop,
// the stream a draw comes from, and what S > 1 refuses.

// TestShardCrossDelivery pins the mailbox hop: a Send whose receiver lives
// on another shard parks in the driver's mailbox (not on the receiver's
// kernel) until the next barrier, and is then delivered exactly once at
// send time + delay on the receiver's clock — at any worker count.
func TestShardCrossDelivery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ss, n := shardedNet(t, 4, workers, WithJitter(0))
		a := n.AddNode(NorthAmerica, 0)
		b := n.AddNode(Europe, 0)
		if n.ShardOf(a) == n.ShardOf(b) {
			t.Fatal("consecutive attaches landed on one shard")
		}
		var deliveredAt []time.Duration
		deliver := func() { deliveredAt = append(deliveredAt, n.Kernel(b).Now()) }
		parked := false
		n.Kernel(a).At(30*time.Millisecond, func() {
			if !n.Send(a, b, 100, deliver) {
				t.Error("Send returned false")
			}
			// Mid-window the delivery is in the mailbox, not on b's kernel.
			parked = n.Kernel(b).Pending() == 0 && ss.Pending() == 1
		})
		if err := ss.Run(); err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if !parked {
			t.Errorf("workers=%d: cross-shard delivery reached the receiver's kernel before a barrier", workers)
		}
		if len(deliveredAt) != 1 || deliveredAt[0] != 75*time.Millisecond { // 30 ms + 45 ms NA->EU
			t.Errorf("workers=%d: deliveries at %v, want exactly one at 75ms", workers, deliveredAt)
		}
	}
}

// TestShardSenderStreamDraws pins where randomness comes from: a send's
// loss and jitter draws consume the "netmodel" stream of the shard owning
// the *sender*, and attach order decides that owner. A twin driver with
// the same seed supplies the expected draws; the receiver's shard's stream
// must be left untouched.
func TestShardSenderStreamDraws(t *testing.T) {
	const jitter, loss = 0.2, 0.5
	for _, senderFirst := range []bool{true, false} {
		ss, n := shardedNet(t, 2, 1, WithJitter(jitter))
		n.SetLoss(loss)
		twin, _ := shardedNet(t, 2, 1)
		var from, to NodeID
		if senderFirst {
			from, to = n.AddNode(Europe, 0), n.AddNode(Europe, 0)
		} else {
			to, from = n.AddNode(Europe, 0), n.AddNode(Europe, 0)
		}
		owner := n.ShardOf(from)
		if senderFirst != (owner == 0) {
			t.Fatalf("senderFirst=%v: sender owned by shard %d", senderFirst, owner)
		}
		want := twin.Shard(owner).Stream("netmodel")
		var wantAt, gotAt []time.Duration
		for i := 0; i < 32; i++ {
			admitted := !want.Bool(loss)
			if admitted {
				wantAt = append(wantAt, want.Jitter(15*time.Millisecond, jitter))
			}
			if ok := n.Send(from, to, 10, func() { gotAt = append(gotAt, n.Kernel(to).Now()) }); ok != admitted {
				t.Fatalf("senderFirst=%v send %d: admitted=%v, the sender's shard stream says %v", senderFirst, i, ok, admitted)
			}
		}
		if err := ss.Run(); err != nil {
			t.Fatal(err)
		}
		// Every send left at time 0, so deliveries fire at the drawn delays
		// in ascending order.
		sort.Slice(wantAt, func(i, j int) bool { return wantAt[i] < wantAt[j] })
		if len(wantAt) == 0 || !reflect.DeepEqual(gotAt, wantAt) {
			t.Fatalf("senderFirst=%v: deliveries at %v, the sender's shard stream says %v", senderFirst, gotAt, wantAt)
		}
		if got, want := n.rngs[1-owner].Float64(), twin.Shard(1-owner).Stream("netmodel").Float64(); got != want {
			t.Fatalf("senderFirst=%v: the receiver's shard stream was consumed", senderFirst)
		}
	}
}

// TestShardConditionWindowsRejected pins the construction-time refusal:
// condition windows mutate state no single shard owns, so a net spanning
// more than one shard rejects them when scheduled; a net on one kernel —
// plain or a one-shard driver — accepts them.
func TestShardConditionWindowsRejected(t *testing.T) {
	_, plain := newNet(t)
	_, one := shardedNet(t, 1, 1)
	_, four := shardedNet(t, 4, 1)
	for _, tc := range []struct {
		name   string
		n      *Net
		refuse bool
	}{{"plain", plain, false}, {"S=1", one, false}, {"S=4", four, true}} {
		a := tc.n.AddNode(Europe, 0)
		b := tc.n.AddNode(Asia, 0)
		errs := map[string]error{
			"partition": tc.n.SchedulePartitionWindow(10*time.Millisecond, 20*time.Millisecond, map[NodeID]int{a: 0, b: 1}),
			"loss":      tc.n.ScheduleLossWindow(10*time.Millisecond, 20*time.Millisecond, 0.5),
			"outage":    tc.n.ScheduleOutageWindow(10*time.Millisecond, 20*time.Millisecond, b),
		}
		for kind, err := range errs {
			switch {
			case tc.refuse && (err == nil || !strings.Contains(err.Error(), "not supported on sharded nets")):
				t.Errorf("%s: %s window returned %v, want the sharded-net refusal", tc.name, kind, err)
			case !tc.refuse && err != nil:
				t.Errorf("%s: %s window refused: %v", tc.name, kind, err)
			}
		}
	}
}

// TestShardSendZeroAllocs extends the hot-path pin to S = 4: steady-state
// Send allocates nothing whether the receiver shares the sender's shard or
// the delivery rides the mailbox. The driver's Run has a small fixed cost
// per call of its own, so the pin is that sending and delivering a batch
// adds nothing to an idle Run.
func TestShardSendZeroAllocs(t *testing.T) {
	ss, n := shardedNet(t, 4, 1)
	ids := make([]NodeID, 5)
	for i := range ids {
		ids[i] = n.AddNode(Europe, 0)
	}
	run := func() {
		if err := ss.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	idle := testing.AllocsPerRun(200, run)
	for name, to := range map[string]NodeID{"same-shard": ids[4], "cross-shard": ids[1]} {
		if same := n.ShardOf(ids[0]) == n.ShardOf(to); same != (name == "same-shard") {
			t.Fatalf("%s: receiver on shard %d, sender on %d", name, n.ShardOf(to), n.ShardOf(ids[0]))
		}
		deliver := func() {}
		batch := func() {
			for i := 0; i < 16; i++ {
				if !n.Send(ids[0], to, 100, deliver) {
					t.Fatal("send refused")
				}
			}
			run()
		}
		for i := 0; i < 4; i++ {
			batch() // warm the event pools, heaps and mailbox backing arrays
		}
		if avg := testing.AllocsPerRun(200, batch); avg != idle {
			t.Errorf("%s: steady-state Send adds %.1f allocations per batch, want 0", name, avg-idle)
		}
	}
}
