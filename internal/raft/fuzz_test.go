package raft

import (
	"math"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzRaftSafety runs a five-node cluster through a fuzzed fault schedule
// and checks Raft's safety properties (Ongaro & Ousterhout 2014, Fig. 3).
//
// Input: two seed bytes, a background Poisson rate byte (0 = no background
// load), then four-byte operations applied between run chunks:
//
//	0, 7  run the kernel for (a+1)·10 ms
//	1     Crash node target(a)              target: a%6 < 5 is that node,
//	2     Recover node target(a)            5 the current leader
//	3     partition window, node i in group bit i of a
//	4     loss window at probability a/255
//	5     outage window over node target(a)
//	6     Poisson burst of 4·(a%64+1) req/s for (b+1)·10 ms
//
// A window opens b·10 ms from now and lasts (c+1)·10 ms; one the transport
// refuses (an overlap) is skipped. Crash takes only live nodes and Recover
// only crashed ones. After the operations every crashed node recovers and
// the cluster runs three more seconds.
//
// Properties:
//
//   - election safety: at most one node is leader in a term, sampled every
//     millisecond; a leader keeps its role until a higher-term message
//     reaches it, so only a leader deposed within a millisecond of winning
//     goes unseen;
//   - state-machine safety: every node applies the same request at each
//     index (OnApply);
//   - log matching: two logs holding an entry with the same index and term
//     are identical up to it;
//   - leader completeness: a leader of term T holds every applied entry
//     whose commit term is below T. The commit term is bounded by the
//     highest term any node held when the entry was applied, which the
//     checker records.
//
// The last two are checked after every run chunk and at the end.
//
// The corpus (testdata/fuzz/FuzzRaftSafety) holds hand-written schedules.
// One, figure8, replays Figure 8 of the Raft paper: an entry from an earlier
// term reaches a majority under a later leader, and a node holding a
// conflicting entry from a higher term is elected after that leader
// crashes. Only the commit rule's current-term check keeps the first entry
// from being applied and then overwritten; random schedules rarely find it.
func FuzzRaftSafety(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		runSafetySchedule(t, int64(data[0])|int64(data[1])<<8, data[2], data[3:])
	})
}

const (
	fuzzNodes  = 5
	fuzzMaxOps = 32
	fuzzTail   = 3 * time.Second
)

func runSafetySchedule(t *testing.T, seed int64, rate byte, ops []byte) {
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	c, err := NewCluster(s, nm, fuzzNodes, netmodel.Europe)
	if err != nil {
		t.Fatal(err)
	}

	maxTerm := func() int {
		m := 0
		for _, n := range c.nodes {
			m = max(m, n.term)
		}
		return m
	}
	type applied struct{ id, bound int } // request id; commit-term bound
	var history []applied                // by index, from the first node to apply it
	c.OnApply(func(node, index int, req Request) {
		if index < len(history) {
			if history[index].id != req.ID {
				t.Fatalf("state-machine safety: node %d applied request %d at index %d, another node applied %d",
					node, req.ID, index, history[index].id)
			}
			return
		}
		history = append(history, applied{req.ID, maxTerm()})
	})
	leaderOf := make(map[int]int) // term -> leader id
	if _, err := s.Every(time.Millisecond, func() {
		for _, n := range c.nodes {
			if n.role != Leader {
				continue
			}
			if id, ok := leaderOf[n.term]; ok && id != n.id {
				t.Fatalf("election safety: nodes %d and %d both leader in term %d at %v", id, n.id, n.term, s.Now())
			}
			leaderOf[n.term] = n.id
		}
	}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		for i, a := range c.nodes {
			for _, b := range c.nodes[i+1:] {
				k := min(len(a.log), len(b.log)) - 1
				for k >= 0 && a.log[k].term != b.log[k].term {
					k--
				}
				for j := k; j >= 0; j-- {
					if a.log[j] != b.log[j] {
						t.Fatalf("%s: log matching: nodes %d and %d agree on the term at index %d but differ at %d",
							when, a.id, b.id, k, j)
					}
				}
			}
		}
		for _, l := range c.nodes {
			if l.role != Leader {
				continue
			}
			for idx, e := range history {
				if e.bound < l.term && (idx >= len(l.log) || l.log[idx].req.ID != e.id) {
					t.Fatalf("%s: leader completeness: leader %d of term %d lacks request %d applied at index %d",
						when, l.id, l.term, e.id, idx)
				}
			}
		}
	}

	load := s.Stream("fuzz.load")
	nextID := 0
	submit := func(int) {
		c.Submit(Request{ID: nextID, SubmittedAt: s.Now()})
		nextID++
	}
	if rate %= 64; rate > 0 {
		if err := workload.StartPoisson(s, load, float64(rate), time.Duration(math.MaxInt64), submit); err != nil {
			t.Fatal(err)
		}
	}
	target := func(a byte) *Node {
		if i := int(a % 6); i < fuzzNodes {
			return c.nodes[i]
		}
		return c.Leader()
	}
	c.Start()
	for step := 0; step < fuzzMaxOps && len(ops) >= 4; step, ops = step+1, ops[4:] {
		a, b, cc := ops[1], ops[2], ops[3]
		start := s.Now() + time.Duration(b)*10*time.Millisecond
		end := start + (time.Duration(cc)+1)*10*time.Millisecond
		switch ops[0] % 8 {
		case 0, 7:
			if err := s.RunFor((time.Duration(a) + 1) * 10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			check("after run chunk")
		case 1:
			if n := target(a); n != nil && !n.crashed {
				c.Crash(n.id)
			}
		case 2:
			if n := target(a); n != nil && n.crashed {
				c.Recover(n.id)
			}
		case 3:
			groups := make(map[netmodel.NodeID]int, fuzzNodes)
			for i, n := range c.nodes {
				groups[n.addr] = int(a>>i) & 1
			}
			_ = nm.SchedulePartitionWindow(start, end, groups)
		case 4:
			_ = nm.ScheduleLossWindow(start, end, float64(a)/255)
		case 5:
			if n := target(a); n != nil {
				_ = nm.ScheduleOutageWindow(start, end, n.addr)
			}
		case 6:
			until := s.Now() + (time.Duration(b)+1)*10*time.Millisecond
			if err := workload.StartPoisson(s, load, float64(a%64+1)*4, until, submit); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range c.nodes {
		if n.crashed {
			c.Recover(n.id)
		}
	}
	if err := s.RunFor(fuzzTail); err != nil {
		t.Fatal(err)
	}
	check("at the end")
}
