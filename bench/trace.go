package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from this package only, around each call into a
// layer of the program; tracing inside internal/ is a later change. They
// stay in memory until the run ends.

// span is one timed call. Parent is the index of the span that caused it
// (-1 for a root) and ID groups the spans of one pass or one request.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration
	End    time.Duration
	Parent int
	ID     int
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// passes run the same code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name, layer string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.t0), Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// dur returns a closed span's duration.
func (t *tracer) dur(i int) time.Duration { return t.spans[i].End - t.spans[i].Start }

// covered returns, for every span, how much of it its direct children
// cover. Children may overlap (two harness workers, two clients), so the
// union of their intervals is measured.
func (t *tracer) covered() []time.Duration {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for p, ks := range kids {
		sort.Slice(ks, func(x, y int) bool { return t.spans[ks[x]].Start < t.spans[ks[y]].Start })
		var edge time.Duration
		for _, k := range ks {
			a, b := max(t.spans[k].Start, edge), t.spans[k].End
			if b > a {
				out[p] += b - a
				edge = b
			}
		}
	}
	return out
}

// layerSelf is one layer's row of the result's layers block.
type layerSelf struct {
	Spans int     `json:"spans"`
	SelfS float64 `json:"self_s"`
}

// layers sums self time (a span minus what its children cover) per layer.
func (t *tracer) layers() map[string]layerSelf {
	covered := t.covered()
	out := make(map[string]layerSelf)
	for i, s := range t.spans {
		row := out[s.Layer]
		row.Spans++
		row.SelfS += (t.dur(i) - covered[i]).Seconds()
		out[s.Layer] = row
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete event per span, tid = the pass or request id.
func (t *tracer) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"traceEvents\":[")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d}}",
			s.Name, s.Layer, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.ID, i, s.Parent)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
