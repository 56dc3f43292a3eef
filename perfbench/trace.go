package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one request
// share req; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	req        int32
	parent     int32
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; they are written out when the run ends.
// One tracer per goroutine: it is not safe for concurrent use.
type tracer struct {
	origin time.Time
	prefix string // distinguishes the reader's and writer's request ids
	spans  []span
}

func newTracer(origin time.Time, prefix string) *tracer {
	return &tracer{origin: origin, prefix: prefix}
}

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, req, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.origin), end: -1})
	return int32(len(t.spans) - 1)
}

// beginAt opens a span that started at start.
func (t *tracer) beginAt(name string, req, parent int32, start time.Time) int32 {
	id := t.begin(name, req, parent)
	t.spans[id].start = start.Sub(t.origin)
	return id
}

// record adds a span that has already ended.
func (t *tracer) record(name string, req, parent int32, start, end time.Time) int32 {
	id := t.beginAt(name, req, parent, start)
	t.spans[id].end = end.Sub(t.origin)
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	sp := &t.spans[id]
	sp.end = time.Since(t.origin)
	return sp.end - sp.start
}

// layerTime is one layer's busy time across a trace: total span time and
// self time (span time not covered by child spans).
type layerTime struct {
	name        string
	spans       int
	total, self time.Duration
}

// selfTimes aggregates spans by layer name. Children of one span never
// overlap (every call the benchmark makes is sequential), so a span's
// self time is its duration minus its children's.
func selfTimes(ts ...*tracer) []layerTime {
	byName := map[string]*layerTime{}
	for _, t := range ts {
		childSum := make([]time.Duration, len(t.spans))
		for _, sp := range t.spans {
			if sp.parent >= 0 && sp.end >= 0 {
				childSum[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range t.spans {
			if sp.end < 0 {
				continue
			}
			lt := byName[sp.name]
			if lt == nil {
				lt = &layerTime{name: sp.name}
				byName[sp.name] = lt
			}
			lt.spans++
			lt.total += sp.end - sp.start
			lt.self += sp.end - sp.start - childSum[i]
		}
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeSpans writes every span as one tab-separated line: request id,
// span index, parent index ("-" for a request's root), layer, start and
// end in microseconds since the run's origin.
func writeSpans(w io.Writer, ts ...*tracer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "req\tspan\tparent\tlayer\tstart_us\tend_us")
	for _, t := range ts {
		for i, sp := range t.spans {
			parent := "-"
			if sp.parent >= 0 {
				parent = fmt.Sprintf("%s%d", t.prefix, sp.parent)
			}
			fmt.Fprintf(bw, "%s%d\t%s%d\t%s\t%s\t%.3f\t%.3f\n",
				t.prefix, sp.req, t.prefix, i, parent, sp.name,
				float64(sp.start)/1e3, float64(sp.end)/1e3)
		}
	}
	return bw.Flush()
}
