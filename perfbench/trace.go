package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Parent is the index of the span that caused it (-1 for a root);
// Session identifies the stream the call served (0 for the local engine).
// Start and End are nanoseconds on the tracer's clock.
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Session    int32
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
// It is not safe for concurrent use: each goroutine that traces owns one.
type tracer struct {
	base  time.Time
	spans []span
}

// newTracer returns a tracer whose clock starts now, with room for hint
// spans before it has to grow.
func newTracer(base time.Time, hint int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, hint)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, session int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), End: -1, Parent: parent, Session: session})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the durations of its direct children. A child is either a call
// made inside the parent's call (nested in time) or the mirrored work of
// a layer the parent hands off to another goroutine (core under shard);
// both are subtracted the same way, so a parent whose children overlap
// it can show negative self time. Unclosed spans are ignored.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// totals sums span durations per name, with the span count.
func totals(spans []span) (dur map[string]int64, count map[string]int) {
	dur, count = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		dur[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	return dur, count
}

// durations lists the durations of every span named name, in microseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// layerOf is the layer a span name belongs to: the part before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeSpans writes spans as CSV (index, name, start, end, parent,
// session; times in nanoseconds) to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,start_ns,end_ns,parent,session")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Session)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
