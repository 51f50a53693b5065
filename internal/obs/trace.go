package obs

import (
	"bufio"
	"io"
	"strconv"
)

// TraceEvent is one entry of the event trace. Timestamps and durations are
// virtual nanoseconds; Ph is the Chrome trace-event phase ('X' for a
// complete span, 'i' for an instant). AKey/BKey name up to two integer
// arguments ("" omits the slot), which keeps Emit allocation-free — no
// maps, no boxing.
type TraceEvent struct {
	Name string
	Cat  string
	Ph   byte
	TS   int64
	Dur  int64
	TID  int64
	AKey string
	AVal int64
	BKey string
	BVal int64
}

// Trace is a bounded in-memory event buffer. Events past the limit are
// dropped and counted, so a long run cannot grow memory without bound. All
// methods are nil-safe so instrumentation sites never guard.
type Trace struct {
	limit   int
	events  []TraceEvent
	dropped uint64
}

// DefaultTraceLimit bounds the trace buffer when callers pass no explicit
// limit (100k events ≈ 10 MB).
const DefaultTraceLimit = 100_000

func newTrace(limit int) *Trace {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	pre := limit
	if pre > 4096 {
		pre = 4096
	}
	return &Trace{limit: limit, events: make([]TraceEvent, 0, pre)}
}

// Emit records one event, or counts it as dropped once the buffer is full.
// Nil-safe; allocation-free once the buffer's backing array has grown to
// the limit.
func (t *Trace) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Span records a complete ('X') event covering [start, start+dur).
func (t *Trace) Span(name, cat string, start, dur, tid int64, aKey string, aVal int64, bKey string, bVal int64) {
	t.Emit(TraceEvent{Name: name, Cat: cat, Ph: 'X', TS: start, Dur: dur, TID: tid,
		AKey: aKey, AVal: aVal, BKey: bKey, BVal: bVal})
}

// Instant records an instant ('i') event at ts.
func (t *Trace) Instant(name, cat string, ts, tid int64, aKey string, aVal int64) {
	t.Emit(TraceEvent{Name: name, Cat: cat, Ph: 'i', TS: ts, TID: tid, AKey: aKey, AVal: aVal})
}

// writeMicros formats virtual nanoseconds as microseconds with a fixed
// 3-digit fraction ("1234.500"), using only integer arithmetic so the
// bytes are identical on every platform.
func writeMicros(w *bufio.Writer, ns int64) {
	neg := ns < 0
	if neg {
		ns = -ns
		w.WriteByte('-')
	}
	var buf [20]byte
	w.Write(strconv.AppendInt(buf[:0], ns/1000, 10))
	w.WriteByte('.')
	frac := ns % 1000
	w.WriteByte(byte('0' + frac/100))
	w.WriteByte(byte('0' + frac/10%10))
	w.WriteByte(byte('0' + frac%10))
}

// WriteJSON emits the buffer in Chrome trace-event format (the JSON object
// form chrome://tracing and Perfetto load directly). Events appear in
// emission order; timestamps are virtual time, so the output is a pure
// function of the run. Nil-safe: a nil trace writes an empty trace object.
func (t *Trace) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	if t != nil {
		var buf [20]byte
		for i := range t.events {
			ev := &t.events[i]
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString("\n{\"name\":")
			bw.Write(strconv.AppendQuote(buf[:0], ev.Name))
			bw.WriteString(`,"cat":`)
			bw.Write(strconv.AppendQuote(buf[:0], ev.Cat))
			bw.WriteString(`,"ph":"`)
			bw.WriteByte(ev.Ph)
			bw.WriteString(`","ts":`)
			writeMicros(bw, ev.TS)
			if ev.Ph == 'X' {
				bw.WriteString(`,"dur":`)
				writeMicros(bw, ev.Dur)
			}
			bw.WriteString(`,"pid":1,"tid":`)
			bw.Write(strconv.AppendInt(buf[:0], ev.TID, 10))
			if ev.AKey != "" || ev.BKey != "" {
				bw.WriteString(`,"args":{`)
				if ev.AKey != "" {
					bw.Write(strconv.AppendQuote(buf[:0], ev.AKey))
					bw.WriteByte(':')
					bw.Write(strconv.AppendInt(buf[:0], ev.AVal, 10))
				}
				if ev.BKey != "" {
					if ev.AKey != "" {
						bw.WriteByte(',')
					}
					bw.Write(strconv.AppendQuote(buf[:0], ev.BKey))
					bw.WriteByte(':')
					bw.Write(strconv.AppendInt(buf[:0], ev.BVal, 10))
				}
				bw.WriteByte('}')
			}
			bw.WriteByte('}')
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
