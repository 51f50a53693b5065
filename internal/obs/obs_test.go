package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	ctr := c.Counter("x")
	h := c.Histogram("z")
	tr := c.Trace()
	if ctr != nil || h != nil || tr != nil {
		t.Fatal("nil collector must hand out nil instruments")
	}
	// Every recording call must be a safe no-op and allocate nothing.
	avg := testing.AllocsPerRun(100, func() {
		ctr.Add(3, 1, 1)
		h.Observe(42)
		tr.Emit(TraceEvent{Name: "e"})
		tr.Span("s", "c", 0, 10, 1, "a", 1, "", 0)
		tr.Instant("i", "c", 5, 2, "k", 9)
	})
	if avg != 0 {
		t.Fatalf("nil-instrument recording allocates %.1f per run, want 0", avg)
	}
	if s := c.Snapshot(); s.Sim.Fired != 0 || len(s.Counters) != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	c.SetNodeSpace(10)
	c.SetRegions([]string{"a"})
	c.AttachSim(nil)
}

func TestCounterLanes(t *testing.T) {
	c := NewCollector()
	c.SetRegions([]string{"all", "NA", "EU"})
	c.SetNodeSpace(8)
	sent := c.Counter("sent")
	sent.Add(0, 1, 2)  // range n0-1, NA
	sent.Add(7, 2, 5)  // range n6-7, EU
	sent.Add(7, 99, 1) // out-of-range region clamps to 0 ("all")
	if got := sent.Total(); got != 8 {
		t.Fatalf("total = %d, want 8", got)
	}
	snap := c.Snapshot()
	if len(snap.Counters) != 1 {
		t.Fatalf("counters = %d, want 1", len(snap.Counters))
	}
	lanes := snap.Counters[0].Lanes
	want := map[string]uint64{"n0-1/NA": 2, "n6-7/EU": 5, "n6-7/all": 1}
	if len(lanes) != len(want) {
		t.Fatalf("lanes = %+v, want %v", lanes, want)
	}
	for _, l := range lanes {
		if want[l.Nodes+"/"+l.Region] != l.Value {
			t.Fatalf("lane %s/%s = %d, want %d", l.Nodes, l.Region, l.Value, want[l.Nodes+"/"+l.Region])
		}
	}
}

func TestCounterSealLocksGeometry(t *testing.T) {
	c := NewCollector()
	c.SetNodeSpace(100)
	ctr := c.Counter("x")
	ctr.Add(99, 0, 1) // seals at node space 100
	c.SetNodeSpace(1000)
	ctr.Add(99, 0, 1)
	snap := c.Snapshot()
	if len(snap.Counters[0].Lanes) != 1 || snap.Counters[0].Lanes[0].Nodes != "n75-99" {
		t.Fatalf("lanes = %+v, want single n75-99 lane", snap.Counters[0].Lanes)
	}
}

func TestCounterRecordingZeroAllocs(t *testing.T) {
	c := NewCollector()
	c.SetRegions([]string{"a", "b"})
	c.SetNodeSpace(64)
	ctr := c.Counter("x")
	h := c.Histogram("h")
	ctr.Add(0, 0, 1) // seal outside the measured loop
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			ctr.Add(i, i&1, 1)
			h.Observe(int64(i) * 1000)
		}
	})
	if avg != 0 {
		t.Fatalf("live recording allocates %.1f per run, want 0", avg)
	}
}

func TestRegisterIsIdempotent(t *testing.T) {
	c := NewCollector()
	if c.Counter("x") != c.Counter("x") {
		t.Fatal("same-name counters differ")
	}
	if c.Histogram("h") != c.Histogram("h") {
		t.Fatal("same-name histograms differ")
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	// Every sample must land in a bucket whose bounds contain it.
	vals := []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 1000, 123456789, 1 << 40, (1 << 62) + 12345}
	for _, v := range vals {
		b := bucketOf(v)
		lo, hi := bucketBounds(b)
		if v < lo || v >= hi {
			t.Fatalf("value %d -> bucket %d bounds [%d,%d) do not contain it", v, b, lo, hi)
		}
	}
	if bucketOf(-5) != 0 {
		t.Fatal("negative values must clamp to bucket 0")
	}
	if b := bucketOf(1<<63 - 1); b >= numBuckets {
		t.Fatalf("max int64 bucket %d out of range", b)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	c := NewCollector()
	h := c.Histogram("lat")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs .. 1ms in ns
	}
	if h.Count() != 1000 || h.Min() != 1000 || h.max != 1000000 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.max)
	}
	// Log-bucketed with 4 sub-buckets per octave: ±~15 % relative error.
	checks := []struct {
		q    float64
		want int64
	}{{0.5, 500000}, {0.9, 900000}, {0.99, 990000}}
	for _, ck := range checks {
		got := h.Quantile(ck.q)
		lo, hi := ck.want*82/100, ck.want*118/100
		if got < lo || got > hi {
			t.Fatalf("q%.2f = %d, want within [%d, %d]", ck.q, got, lo, hi)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.max {
		t.Fatal("quantile endpoints must be min/max")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h *Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	h2 := NewCollector().Histogram("e")
	if h2.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestTraceLimitAndDrop(t *testing.T) {
	c := NewCollector(WithTrace(3))
	tr := c.Trace()
	for i := 0; i < 5; i++ {
		tr.Instant("e", "c", int64(i), 0, "", 0)
	}
	if len(tr.events) != 3 || tr.dropped != 2 {
		t.Fatalf("len/dropped = %d/%d, want 3/2", len(tr.events), tr.dropped)
	}
	snap := c.Snapshot()
	if snap.TraceEvents != 3 || snap.TraceDropped != 2 {
		t.Fatalf("snapshot trace counts = %d/%d", snap.TraceEvents, snap.TraceDropped)
	}
}

func TestTraceJSONIsValidAndDeterministic(t *testing.T) {
	build := func() *Trace {
		c := NewCollector(WithTrace(100))
		tr := c.Trace()
		tr.Span("send", "net", 1500, 2500, 7, "from", 1, "to", 2)
		tr.Instant("drop", "net", 4001, 3, "to", 9)
		tr.Emit(TraceEvent{Name: "plain", Cat: "x", Ph: 'i', TS: -250})
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces rendered different bytes")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			TS   float64          `json:"ts"`
			Dur  float64          `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, a.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "send" || ev.Ph != "X" || ev.TS != 1.5 || ev.Dur != 2.5 {
		t.Fatalf("span mangled: %+v", ev)
	}
	if ev.Args["from"] != 1 || ev.Args["to"] != 2 {
		t.Fatalf("span args mangled: %+v", ev.Args)
	}
	if doc.TraceEvents[2].TS != -0.25 {
		t.Fatalf("negative ts = %v, want -0.25", doc.TraceEvents[2].TS)
	}
	// Nil trace still writes a loadable empty document.
	var empty bytes.Buffer
	var nilTrace *Trace
	if err := nilTrace.WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(empty.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

type fakeSim struct {
	fired uint64
	pend  int
	now   time.Duration
}

func (f fakeSim) Fired() uint64      { return f.fired }
func (f fakeSim) MaxPending() int    { return f.pend }
func (f fakeSim) Now() time.Duration { return f.now }

func TestSnapshotSumsSims(t *testing.T) {
	c := NewCollector()
	c.AttachSim(fakeSim{fired: 10, pend: 3, now: time.Second})
	c.AttachSim(fakeSim{fired: 5, pend: 7, now: 2 * time.Second})
	s := c.Snapshot()
	if s.Sim.Fired != 15 || s.Sim.MaxPending != 7 || s.Sim.VirtualNano != int64(3*time.Second) {
		t.Fatalf("sim snap = %+v", s.Sim)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	c := NewCollector()
	c.Counter("zz").Add(0, 0, 1)
	c.Counter("aa").Add(0, 0, 1)
	c.Histogram("z").Observe(1)
	c.Histogram("a").Observe(1)
	s := c.Snapshot()
	if s.Counters[0].Name != "aa" || s.Counters[1].Name != "zz" {
		t.Fatalf("counters unsorted: %+v", s.Counters)
	}
	if s.Hists[0].Name != "a" || s.Hists[1].Name != "z" {
		t.Fatalf("histograms unsorted: %+v", s.Hists)
	}
}

func TestHostWatchSample(t *testing.T) {
	w := StartHostWatch()
	buf := make([]byte, 1<<20)
	_ = buf
	s := w.Sample()
	if s.WallNanos <= 0 {
		t.Fatalf("wall time %d, want > 0", s.WallNanos)
	}
	if s.HeapLiveBytes == 0 {
		t.Fatal("heap live bytes should be nonzero in a running process")
	}
	var nilWatch *HostWatch
	if nilWatch.Sample() != (HostSample{}) {
		t.Fatal("nil watch must sample zero")
	}
}
