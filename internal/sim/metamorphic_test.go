package sim

import (
	"fmt"
	"testing"
	"time"
)

// This file is the metamorphic chunking suite for the sequential kernel:
// driving any workload with RunFor in k chunks must be indistinguishable
// from one RunUntil over the same horizon — identical fire log, identical
// final clock, identical Pending. The property is what lets the harness,
// the report runner and chunked drivers compose runs freely. Each workload mirrors the scheduling
// shape of a family of experiments rather than reusing their full stacks,
// so a failure localizes to the kernel.

// metaRec is one observed firing: timestamp plus workload-assigned id.
type metaRec struct {
	at time.Duration
	id int64
}

// metaWorkload seeds a Sim with a self-sustaining workload whose firings
// append to the returned log. The trajectory must be a pure function of
// the Sim's seed.
type metaWorkload struct {
	name    string
	horizon time.Duration
	seed    func(s *Sim) *[]metaRec
}

// burstWorkload mirrors E01-style fan-outs: waves of same-instant events
// (ties resolved by seq) each scheduling the next wave after a random gap.
func burstWorkload() metaWorkload {
	return metaWorkload{
		name:    "burst",
		horizon: 2 * time.Second,
		seed: func(s *Sim) *[]metaRec {
			log := &[]metaRec{}
			g := s.Stream("burst")
			spawned := int64(0)
			var wave func(id int64)
			wave = func(id int64) {
				*log = append(*log, metaRec{s.Now(), id})
				if spawned >= 3000 {
					return
				}
				gap := time.Duration(g.Intn(int(40 * time.Millisecond)))
				n := 1 + g.Intn(4)
				for i := 0; i < n; i++ {
					spawned++
					next := spawned
					s.After(gap, func() { wave(next) })
				}
			}
			s.At(0, func() { wave(0) })
			return log
		},
	}
}

// pingPongWorkload mirrors E03-style lookup chains: request/response pairs
// via handler events, each response spawning the next request, with a
// tail of long timers that mostly get out-raced.
func pingPongWorkload() metaWorkload {
	return metaWorkload{
		name:    "pingpong",
		horizon: 3 * time.Second,
		seed: func(s *Sim) *[]metaRec {
			log := &[]metaRec{}
			g := s.Stream("rpc")
			var respond, request Handler
			respond = func(p Payload) {
				*log = append(*log, metaRec{s.Now(), p.B})
				if p.A > 0 {
					s.AfterFunc(time.Duration(g.Intn(int(25*time.Millisecond))), request,
						Payload{A: p.A - 1, B: p.B + 1})
				}
			}
			request = func(p Payload) {
				*log = append(*log, metaRec{s.Now(), -p.B})
				s.AfterFunc(time.Duration(g.Intn(int(25*time.Millisecond))), respond, p)
			}
			for i := 0; i < 40; i++ {
				s.AfterFunc(time.Duration(g.Intn(int(100*time.Millisecond))), request,
					Payload{A: 30, B: int64(i) * 1000})
				// Straggler timers that usually land beyond the horizon.
				s.After(time.Duration(g.Intn(int(5*time.Second))), func() {
					*log = append(*log, metaRec{s.Now(), 999999})
				})
			}
			return log
		},
	}
}

// churnWorkload mirrors E15-style churn: sessions arrive on a ticker, each
// arming a departure timer that a renewal sometimes cancels and re-arms —
// a steady stream of Cancel traffic against live timers.
func churnWorkload() metaWorkload {
	return metaWorkload{
		name:    "churn",
		horizon: 4 * time.Second,
		seed: func(s *Sim) *[]metaRec {
			log := &[]metaRec{}
			g := s.Stream("churn")
			id := int64(0)
			var arrive func()
			arrive = func() {
				id++
				self := id
				*log = append(*log, metaRec{s.Now(), self})
				depart := s.After(time.Duration(g.Intn(int(800*time.Millisecond))), func() {
					*log = append(*log, metaRec{s.Now(), -self})
				})
				if g.Bool(0.4) { // renewal: cancel the departure, re-arm later
					s.After(time.Duration(g.Intn(int(400*time.Millisecond))), func() {
						if depart.Scheduled() {
							depart.Cancel()
							s.After(time.Duration(g.Intn(int(800*time.Millisecond))), func() {
								*log = append(*log, metaRec{s.Now(), -self})
							})
						}
					})
				}
				if id < 3000 {
					s.After(time.Duration(g.Intn(int(30*time.Millisecond))), arrive)
				}
			}
			s.At(0, func() { arrive() })
			return log
		},
	}
}

// runChunked seeds the workload and drives it to its horizon in k RunFor
// chunks (k=1 degenerates to one RunUntil), returning the fire log and the
// final pending count.
func runChunked(t *testing.T, w metaWorkload, chunks int) ([]metaRec, int) {
	t.Helper()
	s := New(WithSeed(11))
	log := w.seed(s)
	if chunks <= 1 {
		if err := s.RunUntil(w.horizon); err != nil {
			t.Fatalf("%s: RunUntil: %v", w.name, err)
		}
	} else {
		per := w.horizon / time.Duration(chunks)
		for i := 0; i < chunks; i++ {
			if err := s.RunFor(per); err != nil {
				t.Fatalf("%s: RunFor chunk %d: %v", w.name, i, err)
			}
		}
		if rest := w.horizon - per*time.Duration(chunks); rest > 0 {
			if err := s.RunFor(rest); err != nil {
				t.Fatalf("%s: RunFor remainder: %v", w.name, err)
			}
		}
	}
	if got := s.Now(); got != w.horizon {
		t.Fatalf("%s: clock at %v after horizon %v", w.name, got, w.horizon)
	}
	return *log, s.Pending()
}

// TestRunForChunksEquivalence is the metamorphic property itself, across
// the three workload shapes and a spread of chunk counts (including ones
// that do not divide the horizon evenly, so chunk boundaries land at
// arbitrary instants between and exactly on event timestamps).
func TestRunForChunksEquivalence(t *testing.T) {
	for _, w := range []metaWorkload{burstWorkload(), pingPongWorkload(), churnWorkload()} {
		w := w
		t.Run(w.name, func(t *testing.T) {
			base, basePending := runChunked(t, w, 1)
			if len(base) < 200 {
				t.Fatalf("workload fired only %d events; too small to be meaningful", len(base))
			}
			for _, chunks := range []int{2, 3, 7, 16, 61} {
				t.Run(fmt.Sprintf("chunks=%d", chunks), func(t *testing.T) {
					got, gotPending := runChunked(t, w, chunks)
					if gotPending != basePending {
						t.Fatalf("pending after horizon: %d vs %d", gotPending, basePending)
					}
					if len(got) != len(base) {
						t.Fatalf("fired %d events vs %d", len(got), len(base))
					}
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("firing %d: %+v vs %+v", i, got[i], base[i])
						}
					}
				})
			}
		})
	}
}
