package netmodel

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzCall drives random Calls between four nodes against a shadow model
// of their messages and checks every exchange's outcome:
//
//   - done fires exactly once per Call, at the response's delivery when ok
//     and at the deadline otherwise;
//   - ok is true iff the response is delivered while the deadline is
//     pending;
//   - inFlight is true iff the request was sent and not served before the
//     deadline, and a Call whose done reported inFlight=false never serves
//     after done;
//   - each serve runs at most once, at its own request's delivery, and
//     every serve and done is the one its Call booked, so an exchange
//     reused while an event could still reach it shows up as a callback of
//     the wrong Call or at the wrong instant.
//
// The shadow draws from a copy of the senders' one stream in the order the
// transport does: a request's loss and delay draws in the event that issues
// its Call, a response's inside serve, which the transport follows with
// the response's Send. Fault windows are booked before any Call, so at a
// tie with a delivery the window's edge comes first; a Call's deadline is
// booked before its request and response, so it wins a tie with either.
//
// Inputs: the stream's seed, the loss rate (lossByte/255), outage windows
// (3 bytes each: node, start and length in 5 ms steps) and Calls (4 bytes
// each: start in 5 ms steps; requester, receiver offset and whether serve
// declines; the timeout in ms, mod 10 001, so within [0, 10 s]).
func FuzzCall(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, lossByte uint8, windows, calls []byte) {
		type window struct {
			node       NodeID
			start, end time.Duration
		}
		type call struct {
			from, to    NodeID
			at          time.Duration
			deadline    time.Duration
			declines    bool
			reqSent     bool
			reqArrive   time.Duration
			served      bool // the request was delivered (the receiver was up)
			respSent    bool
			respArrive  time.Duration
			dones       int
			doneAt      time.Duration
			ok          bool
			inFlight    bool
			serves      int
			serveAt     time.Duration
			lateServeAt time.Duration // a serve after done(false, false), -1 if none
		}
		const step = 5 * time.Millisecond
		regions := [...]Region{Europe, Asia, NorthAmerica, Oceania}
		loss := float64(lossByte) / 255

		s := sim.New(sim.WithSeed(1))
		n := New(s, WithSenderStreams([]*sim.RNG{sim.NewRNG(seed)}))
		shadowRNG := sim.NewRNG(seed)
		for _, r := range regions {
			n.AddNode(r, 0)
		}
		n.SetLoss(loss)

		var outages []window
		for i := 0; i+3 <= len(windows) && len(outages) < 8; i += 3 {
			w := window{
				node:  NodeID(int(windows[i]) % len(regions)),
				start: time.Duration(windows[i+1]) * step,
			}
			w.end = w.start + time.Duration(windows[i+2])*step + time.Millisecond
			if n.ScheduleOutageWindow(w.start, w.end, w.node) == nil {
				outages = append(outages, w)
			}
		}
		up := func(id NodeID, at time.Duration) bool {
			for _, w := range outages {
				if w.node == id && w.start <= at && at < w.end {
					return false
				}
			}
			return true
		}
		// admit is the shadow of one Send admission at the current instant:
		// reachability, the loss draw, then the delay draw.
		admit := func(from, to NodeID) (time.Duration, bool) {
			now := s.Now()
			if !up(from, now) || !up(to, now) {
				return 0, false
			}
			if loss > 0 && shadowRNG.Bool(loss) {
				return 0, false
			}
			base := time.Duration(baseOneWay[regions[from]-1][regions[to]-1]) * time.Millisecond
			return now + shadowRNG.Jitter(base, n.jitter), true
		}

		var cs []*call
		for i := 0; i+4 <= len(calls) && len(cs) < 32; i += 4 {
			c := &call{
				from:        NodeID(calls[i+1] & 3),
				at:          time.Duration(calls[i]) * step,
				declines:    calls[i+1]&0x10 != 0,
				lateServeAt: -1,
			}
			c.to = (c.from + 1 + NodeID((calls[i+1]>>2)&3)%3) % NodeID(len(regions))
			timeout := time.Duration(binary.BigEndian.Uint16(calls[i+2:])%10001) * time.Millisecond
			cs = append(cs, c)
			serve := func() bool {
				c.serves, c.serveAt = c.serves+1, s.Now()
				if c.dones > 0 && !c.inFlight {
					c.lateServeAt = s.Now()
				}
				if c.declines {
					return false
				}
				c.respArrive, c.respSent = admit(c.to, c.from)
				return true
			}
			done := func(ok, inFlight bool) {
				c.dones++
				c.doneAt, c.ok, c.inFlight = s.Now(), ok, inFlight
			}
			s.At(c.at, func() {
				c.deadline = s.Now() + timeout
				c.reqArrive, c.reqSent = admit(c.from, c.to)
				c.served = c.reqSent && up(c.to, c.reqArrive)
				n.Call(c.from, c.to, 40, 120, timeout, serve, done)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}

		for i, c := range cs {
			if c.dones != 1 {
				t.Fatalf("call %d (%+v): done fired %d times, want once", i, *c, c.dones)
			}
			wantServes := 0
			if c.served {
				wantServes = 1
			}
			if c.serves != wantServes || (c.served && c.serveAt != c.reqArrive) {
				t.Fatalf("call %d (%+v): serve ran %d times, last at %v; want %d at %v",
					i, *c, c.serves, c.serveAt, wantServes, c.reqArrive)
			}
			if c.lateServeAt >= 0 {
				t.Fatalf("call %d (%+v): serve ran at %v after done reported the request settled",
					i, *c, c.lateServeAt)
			}
			answered := c.served && !c.declines && c.respSent && up(c.from, c.respArrive) &&
				c.respArrive < c.deadline
			wantAt := c.deadline
			if answered {
				wantAt = c.respArrive
			}
			wantInFlight := c.reqSent && !(c.served && c.reqArrive < c.deadline)
			if c.ok != answered || c.inFlight != wantInFlight || c.doneAt != wantAt {
				t.Fatalf("call %d (%+v): done(%t, %t)@%v, want done(%t, %t)@%v",
					i, *c, c.ok, c.inFlight, c.doneAt, answered, wantInFlight, wantAt)
			}
		}
	})
}
