package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []Span{
		{Name: "request", Start: 0, End: 100, Parent: -1},   // 0
		{Name: "a", Start: 10, End: 50, Parent: 0},          // 1: children 3, 4
		{Name: "b", Start: 60, End: 90, Parent: 0},          // 2: no children
		{Name: "c", Start: 15, End: 25, Parent: 1},          // 3: child 5
		{Name: "c", Start: 20, End: 40, Parent: 1},          // 4: overlaps 3
		{Name: "d", Start: 16, End: 18, Parent: 3},          // 5: leaf
		{Name: "request", Start: 100, End: 130, Parent: -1}, // 6: child 7 overruns it
		{Name: "e", Start: 120, End: 150, Parent: 6},        // 7
	}
	want := []int64{
		100 - 40 - 30, // request: minus a and b
		40 - 25,       // a: c spans cover [15,40)
		30,            // b
		10 - 2,        // c: minus d
		20,            // c
		2,             // d
		30 - 10,       // request: e covers only [120,130) of it
		30,            // e
	}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
	agg := Aggregate(spans)
	if st := agg["c"]; st.Calls != 2 || st.SelfNs != 28 {
		t.Errorf("stage c = %+v, want 2 calls, 28 ns", *st)
	}
	if st := agg["request"]; st.Calls != 2 || st.SelfNs != 50 {
		t.Errorf("stage request = %+v, want 2 calls, 50 ns", *st)
	}
}

func TestTracerNestsAndCountsRequests(t *testing.T) {
	tr := NewTracer()
	r0 := tr.BeginRequest("request")
	_ = tr.Span("serve.decode", func() error { return nil })
	a := tr.Begin("cache.lookup")
	tr.EndWork(tr.Begin("serve.build"), 7)
	tr.End(a)
	tr.End(r0)
	r1 := tr.BeginRequest("request")
	tr.End(r1)
	got := tr.Spans()
	type shape struct {
		name   string
		parent int
		req    int
		work   int64
	}
	want := []shape{
		{"request", -1, 0, 0},
		{"serve.decode", 0, 0, 0},
		{"cache.lookup", 0, 0, 0},
		{"serve.build", 2, 0, 7},
		{"request", -1, 1, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i, s := range got {
		if (shape{s.Name, s.Parent, s.Req, s.Work}) != want[i] || s.End < s.Start {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestRepeatLeavesSelfTimeAndWall(t *testing.T) {
	spans := []Span{
		{Name: "request", Start: 0, End: 100, Parent: -1},        // 0
		{Name: "netsim.sim_setup", Start: 0, End: 20, Parent: 0}, // 1
		{Name: "netsim.sim_rounds", Start: 20, End: 90, Parent: 0},
		{Name: repeatSpan, Start: 20, End: 38, Parent: 2},
		{Name: "request", Start: 150, End: 160, Parent: -1}, // the gap between requests is not traced time
	}
	if got := ReplayWall(spans); got != 100+10-18 {
		t.Errorf("ReplayWall = %d, want %d", got, 100+10-18)
	}
	agg := Aggregate(spans)
	if st := agg["netsim.sim_rounds"]; st.SelfNs != 70-18 {
		t.Errorf("sim_rounds self time %d, want %d", st.SelfNs, 70-18)
	}

	tr := NewTracer()
	r := tr.BeginRequest("request")
	id := tr.Begin("netsim.sim_rounds")
	tr.Repeat(time.Hour) // clamped to the span's elapsed time
	tr.End(id)
	tr.End(r)
	rep := tr.Spans()[2]
	if rep.Name != repeatSpan || rep.Parent != id || rep.Start != tr.Spans()[id].Start || rep.End > tr.Spans()[id].End {
		t.Errorf("repeat span %+v under %+v", rep, tr.Spans()[id])
	}
}

func TestLayerMetricsShares(t *testing.T) {
	agg := map[string]*StageStats{
		"netsim.sim_setup":  {Calls: 2, SelfNs: 400},
		"netsim.sim_rounds": {Calls: 2, SelfNs: 400, Work: 100},
		"serve.encode":      {Calls: 4, SelfNs: 100, Work: 1000},
		"request":           {Calls: 2, SelfNs: 100},
	}
	m := layerMetrics(agg, 1000)
	for name, want := range map[string]float64{
		"netsim.sim_setup.share":              0.4,
		"netsim.sim_setup.us_per_call":        0.2,
		"netsim.sim_rounds.ns_per_node_round": 4,
		"serve.encode.bytes_per_call":         250,
		"fault.analyze.calls":                 0,
		"trace.unattributed_share":            0.1, // the request roots
	} {
		if got := m[name].Value; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
