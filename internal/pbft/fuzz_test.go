package pbft

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzPBFTSafety runs a replica group through a fuzzed fault schedule and
// checks PBFT's safety properties (Castro & Liskov 1999, §4.5.1) at every
// execution.
//
// Input: two seed bytes, a shape byte, a background Poisson rate byte (0 =
// no background load), then four-byte operations applied between run
// chunks. The shape byte's bit 0 picks n (4 or 7), bits 1-2 the batch size
// (1 to 4) and bits 3-5 the equivocating replica (none when >= n). The
// operations are
//
//	0, 7  run the kernel for (a+1)·10 ms
//	1     Crash replica target(a)              target: a%(n+1) < n is that
//	2     Recover replica target(a)            replica, n the current primary
//	3     partition window, replica i in group bit i of a
//	4     loss window at probability a/255
//	5     outage window over replica target(a)
//	6     Poisson burst of 4·(a%64+1) req/s for (b+1)·10 ms
//
// A window opens b·10 ms from now and lasts (c+1)·10 ms; one the transport
// refuses (an overlap) is skipped. Crash takes only live replicas, and only
// while fewer than f are crashed; Recover takes only crashed ones. After the
// operations every crashed replica recovers and the group runs three more
// seconds.
//
// Properties, checked at every execution:
//
//   - agreement: every replica that executes a sequence number executes the
//     same batch (the same request ids, in order) there;
//   - validity: a replica executes only submitted request ids, and none
//     twice;
//   - order: each replica executes sequence numbers 0, 1, 2, … without a
//     gap.
//
// The fault model is what the package claims to tolerate: at most f
// replicas crashed at once, one Byzantine primary whose only fault is
// equivocation, and an asynchronous network that loses, partitions and
// delays. Liveness is not checked: view changes carry no prepared
// certificates, so a sequence number left half-prepared across a view
// change stalls its replicas, which is a liveness gap, not a safety one.
//
// The corpus (testdata/fuzz/FuzzPBFTSafety) holds hand-written schedules.
// Two name the mutants they kill: equivocating-primary is a Byzantine
// primary under load, whose two batches each reach 2f commit votes, and
// stale-primary makes a replica that missed every pre-prepare the primary
// of the next view, so it proposes a new batch for a sequence number the
// others already executed.
func FuzzPBFTSafety(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		runPBFTSchedule(t, int64(data[0])|int64(data[1])<<8, data[2], data[3], data[4:])
	})
}

const (
	pbftFuzzMaxOps = 32
	pbftFuzzTail   = 3 * time.Second
)

func runPBFTSchedule(t *testing.T, seed int64, shape, rate byte, ops []byte) {
	n := 4
	if shape&1 == 1 {
		n = 7
	}
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	c, err := NewCluster(s, nm, n, netmodel.Europe, Config{
		BatchSize:         int(shape>>1&3) + 1,
		BatchTimeout:      20 * time.Millisecond,
		ViewChangeTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := int(shape >> 3 & 7); e < n {
		c.MakeEquivocating(e)
	}

	nextID := 0
	executedAt := make([]map[int]bool, n) // replica -> executed request ids
	for i := range executedAt {
		executedAt[i] = make(map[int]bool)
	}
	var agreed [][]int // by seq: the first executed batch's request ids
	c.onExecute = func(replica, seq int, batch []Request) {
		if want := c.replicas[replica].lastExe; seq != want {
			t.Fatalf("order: replica %d executed seq %d, its next is %d", replica, seq, want)
		}
		ids := make([]int, len(batch))
		for i, r := range batch {
			ids[i] = r.ID
			if r.ID < 0 || r.ID >= nextID {
				t.Fatalf("validity: replica %d executed request %d at seq %d; %d were submitted", replica, r.ID, seq, nextID)
			}
			if executedAt[replica][r.ID] {
				t.Fatalf("validity: replica %d executed request %d twice (again at seq %d)", replica, r.ID, seq)
			}
			executedAt[replica][r.ID] = true
		}
		if seq >= len(agreed) {
			agreed = append(agreed, make([][]int, seq+1-len(agreed))...)
		}
		if agreed[seq] == nil {
			agreed[seq] = ids
		} else if !slices.Equal(agreed[seq], ids) {
			t.Fatalf("agreement: replica %d executed %v at seq %d, another replica executed %v",
				replica, ids, seq, agreed[seq])
		}
	}

	load := s.Stream("fuzz.load")
	submit := func(int) {
		c.Submit(Request{ID: nextID, SubmittedAt: s.Now()})
		nextID++
	}
	if rate %= 64; rate > 0 {
		if err := workload.StartPoisson(s, load, float64(rate), time.Duration(math.MaxInt64), submit); err != nil {
			t.Fatal(err)
		}
	}
	target := func(a byte) *Replica {
		if i := int(a) % (n + 1); i < n {
			return c.replicas[i]
		}
		return c.primary(c.medianView())
	}
	crashed := 0
	for step := 0; step < pbftFuzzMaxOps && len(ops) >= 4; step, ops = step+1, ops[4:] {
		a, b, cc := ops[1], ops[2], ops[3]
		start := s.Now() + time.Duration(b)*10*time.Millisecond
		end := start + (time.Duration(cc)+1)*10*time.Millisecond
		switch ops[0] % 8 {
		case 0, 7:
			if err := s.RunFor((time.Duration(a) + 1) * 10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case 1:
			if r := target(a); !r.crashed && crashed < c.f {
				c.Crash(r.id)
				crashed++
			}
		case 2:
			if r := target(a); r.crashed {
				c.Recover(r.id)
				crashed--
			}
		case 3:
			groups := make(map[netmodel.NodeID]int, n)
			for i, r := range c.replicas {
				groups[r.addr] = int(a>>i) & 1
			}
			_ = nm.SchedulePartitionWindow(start, end, groups)
		case 4:
			_ = nm.ScheduleLossWindow(start, end, float64(a)/255)
		case 5:
			_ = nm.ScheduleOutageWindow(start, end, target(a).addr)
		case 6:
			until := s.Now() + (time.Duration(b)+1)*10*time.Millisecond
			if err := workload.StartPoisson(s, load, float64(a%64+1)*4, until, submit); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range c.replicas {
		if r.crashed {
			c.Recover(r.id)
		}
	}
	if err := s.RunFor(pbftFuzzTail); err != nil {
		t.Fatal(err)
	}
}
