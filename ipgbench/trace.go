package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer during the traced replay.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a request root
	Req    int    `json:"req"`    // request id, shared by every span of one request
	// Work is the amount the call processed, where the stage has a
	// natural unit: bytes for serve.encode, node-rounds for
	// netsim.sim_rounds.
	Work int64 `json:"work,omitempty"`
}

// Tracer records spans in memory.  Spans nest by a stack: the replay is
// sequential, so the innermost open span is always the parent.  A span
// may be opened on another goroutine (a cache build runs on the cache's
// flight goroutine) only while the opener is blocked waiting for it.
type Tracer struct {
	t0    time.Time
	spans []Span
	open  []int
	req   int
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now(), req: -1} }

// BeginRequest opens the root span of the next request.
func (t *Tracer) BeginRequest(name string) int {
	t.req++
	return t.Begin(name)
}

// Begin opens a span under the innermost open one.
func (t *Tracer) Begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	t.open = append(t.open, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) { t.EndWork(id, 0) }

// EndWork closes span id and records the work it did.
func (t *Tracer) EndWork(id int, work int64) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Work = work
	t.open = t.open[:len(t.open)-1]
}

// Repeat records that the first d of the innermost open span repeated
// work already charged to an earlier span.  The repeat becomes a child
// span named repeatSpan, so it leaves the open span's self time, and
// ReplayWall leaves it out of the traced wall time.
func (t *Tracer) Repeat(d time.Duration) {
	parent := t.open[len(t.open)-1]
	start := t.spans[parent].Start
	end := start + int64(d)
	if now := int64(time.Since(t.t0)); end > now {
		end = now
	}
	t.spans = append(t.spans, Span{Name: repeatSpan, Start: start, End: end, Parent: parent, Req: t.req})
}

// repeatSpan names the spans Repeat records.
const repeatSpan = "replay.repeat"

// Duration is the length of closed span id.
func (t *Tracer) Duration(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// Span runs fn inside a span.
func (t *Tracer) Span(name string, fn func() error) error {
	id := t.Begin(name)
	err := fn()
	t.End(id)
	return err
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// SelfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, x := range iv {
			if x[0] > reach {
				reach = x[0]
			}
			if x[1] > reach {
				covered += x[1] - reach
				reach = x[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// ReplayWall is the traced wall time: the request root spans' total
// duration, less the repeats.  Time between requests (checking a reply)
// is not the replayed program's and is left out.
func ReplayWall(spans []Span) time.Duration {
	var ns int64
	for _, s := range spans {
		switch {
		case s.Parent < 0:
			ns += s.End - s.Start
		case s.Name == repeatSpan:
			ns -= s.End - s.Start
		}
	}
	return time.Duration(ns)
}

// StageStats is one stage's share of a trace.
type StageStats struct {
	Calls  int64
	SelfNs int64
	Work   int64
}

// Aggregate sums calls, self time and work per span name.
func Aggregate(spans []Span) map[string]*StageStats {
	self := SelfTimes(spans)
	out := map[string]*StageStats{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &StageStats{}
			out[s.Name] = st
		}
		st.Calls++
		st.SelfNs += self[i]
		st.Work += s.Work
	}
	return out
}

// WriteSpans writes one JSON object per span.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
