package sim

import (
	"errors"
	"sort"
	"testing"
	"time"
)

// FuzzScheduleCancel interprets the fuzz input as a program of kernel
// operations — At, AfterFunc, Cancel, Stop, RunFor — and checks the kernel
// against an exact shadow model after every step:
//
//   - heap invariants: every queued event's index field matches its slot,
//     every slot's inline (at, seq) key is the one its event was scheduled
//     with, each slot is (at, seq)-ordered strictly after its parent slot
//     (i-1)/arity, and every recycled event reads index -1;
//   - Pending() equals the shadow model's live-event count exactly
//     (cancellation is eager, so canceled events never linger);
//   - each RunFor fires precisely the predicted events, in (at, seq)
//     order, with monotone non-decreasing timestamps, and leaves the
//     clock and the Stop error exactly where the model says.
//
// The shadow model can be exact because the kernel's contract is total
// determinism: seq is one counter bumped per schedule, so the fire order
// of any schedule/cancel/stop interleaving is a pure function of the
// program. Any divergence is a kernel bug by definition.
func FuzzScheduleCancel(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x01, 0x03, 0x03, 0x40})
	f.Add([]byte{0x00, 0x07, 0x02, 0x00, 0x03, 0x20, 0x04, 0x03, 0x10})
	f.Add([]byte{0x05, 0x02, 0x00, 0x02, 0x01, 0x02, 0x03, 0x7f, 0x03, 0x7f})
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x03, 0x00, 0x00, 0x0c, 0x02, 0x01, 0x03, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		type shadow struct {
			at      time.Duration
			seq     uint64
			id      int64
			live    bool
			stopper bool
			closure bool
			h       Handle
		}
		type firing struct {
			at time.Duration
			id int64
		}
		s := New(WithSeed(1))
		var (
			evs         []shadow
			got         []firing // appended by callbacks, reset per run
			stopPending bool
			clock       time.Duration
			nextSeq     uint64
			nextID      int64
		)
		record := func(p Payload) { got = append(got, firing{s.Now(), p.B}) }

		checkState := func(step int) {
			for i, e := range s.queue {
				if e.ev.index != i {
					t.Fatalf("step %d: queue[%d].ev.index = %d", step, i, e.ev.index)
				}
				// seq is the schedule's serial number, so it names the
				// shadow record the inline key must agree with.
				if e.seq >= uint64(len(evs)) || !evs[e.seq].live || evs[e.seq].at != e.at || e.ev.at != e.at {
					t.Fatalf("step %d: queue[%d] carries key (%v, %d) for an event at %v, which no live model event matches",
						step, i, e.at, e.seq, e.ev.at)
				}
				if i > 0 {
					p := s.queue[(i-1)/arity]
					if p.at > e.at || (p.at == e.at && p.seq >= e.seq) {
						t.Fatalf("step %d: heap order violated at slot %d: parent (%v, %d) !< child (%v, %d)",
							step, i, p.at, p.seq, e.at, e.seq)
					}
				}
			}
			live := 0
			for i := range evs {
				if evs[i].live {
					live++
				}
				if evs[i].closure && evs[i].h.Scheduled() != evs[i].live {
					t.Fatalf("step %d: handle %d Scheduled()=%v, model live=%v",
						step, i, evs[i].h.Scheduled(), evs[i].live)
				}
			}
			// A fired or canceled event sits on the free list reading -1
			// until its slot is reused.
			for ev := s.free; ev != nil; ev = ev.nextFree {
				if ev.index != -1 {
					t.Fatalf("step %d: recycled event has index %d, want -1", step, ev.index)
				}
			}
			if s.Pending() != live {
				t.Fatalf("step %d: Pending()=%d, model has %d live events", step, s.Pending(), live)
			}
			if s.Now() != clock {
				t.Fatalf("step %d: Now()=%v, model clock %v", step, s.Now(), clock)
			}
		}

		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}
		for step := 0; step < 300; step++ {
			op, ok := next()
			if !ok {
				break
			}
			arg, _ := next()
			// Small modulus so distinct schedules frequently collide on the
			// same instant and exercise the seq tiebreak.
			d := time.Duration(arg%13) * time.Millisecond
			switch op % 6 {
			case 0: // closure event
				id := nextID
				nextID++
				h := s.At(clock+d, func() { got = append(got, firing{s.Now(), id}) })
				evs = append(evs, shadow{at: clock + d, seq: nextSeq, id: id, live: true, closure: true, h: h})
				nextSeq++
			case 1: // handler event (no handle, cannot be canceled)
				id := nextID
				nextID++
				s.AfterFunc(d, record, Payload{B: id})
				evs = append(evs, shadow{at: clock + d, seq: nextSeq, id: id, live: true})
				nextSeq++
			case 2: // cancel an arbitrary prior closure event (stale picks are no-ops)
				if len(evs) == 0 {
					continue
				}
				k := int(arg) % len(evs)
				if !evs[k].closure {
					continue
				}
				evs[k].h.Cancel()
				evs[k].live = false
			case 3: // RunFor: predict the exact firing sequence
				horizon := clock + d
				var want []firing
				var wantErr error
				if stopPending {
					stopPending = false
					wantErr = ErrStopped
				} else {
					idx := make([]int, 0, len(evs))
					for i := range evs {
						if evs[i].live && evs[i].at <= horizon {
							idx = append(idx, i)
						}
					}
					sort.Slice(idx, func(a, b int) bool {
						ea, eb := &evs[idx[a]], &evs[idx[b]]
						if ea.at != eb.at {
							return ea.at < eb.at
						}
						return ea.seq < eb.seq
					})
					clock = horizon
					for _, i := range idx {
						evs[i].live = false
						want = append(want, firing{evs[i].at, evs[i].id})
						if evs[i].stopper {
							// drain returns after the stopping event; the
							// clock stays at its timestamp and later events
							// survive to the next run.
							clock = evs[i].at
							wantErr = ErrStopped
							break
						}
					}
				}
				got = got[:0]
				err := s.RunFor(d)
				if !errors.Is(err, wantErr) && !(err == nil && wantErr == nil) {
					t.Fatalf("step %d: RunFor(%v) err=%v, model wants %v", step, d, err, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("step %d: fired %d events, model predicts %d\n got=%v\nwant=%v",
						step, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("step %d: firing %d = %+v, model predicts %+v", step, i, got[i], want[i])
					}
					if i > 0 && got[i].at < got[i-1].at {
						t.Fatalf("step %d: fire times went backwards: %v after %v", step, got[i].at, got[i-1].at)
					}
				}
			case 4: // Stop with no run in flight: consumed by the next run
				s.Stop()
				stopPending = true
			case 5: // stopper: a closure that halts the run from inside
				id := nextID
				nextID++
				h := s.At(clock+d, func() {
					got = append(got, firing{s.Now(), id})
					s.Stop()
				})
				evs = append(evs, shadow{at: clock + d, seq: nextSeq, id: id, live: true, closure: true, stopper: true, h: h})
				nextSeq++
			}
			checkState(step)
		}
		// Drain whatever survived so the final accounting is checked too:
		// every remaining live event fires exactly once.
		live := 0
		for i := range evs {
			if evs[i].live {
				live++
			}
		}
		got = got[:0]
		err := s.Run()
		if stopPending {
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("final Run with pending stop: err=%v", err)
			}
		} else if err != nil {
			// Stoppers may halt the drain partway; anything else is a bug.
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("final Run: %v", err)
			}
		} else if len(got) != live {
			t.Fatalf("final Run fired %d events, model had %d live", len(got), live)
		}
	})
}
