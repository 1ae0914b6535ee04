package main

import (
	"context"
	"testing"
	"time"
)

// TestReplayLoadsTheNamedLayers pins that each workload's traced replay
// reaches the stages its name promises and skips the ones it bypasses,
// with every replayed response passing the oracle.
func TestReplayLoadsTheNamedLayers(t *testing.T) {
	calls := func(w string) map[string]int64 {
		p, err := Generate(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.Traced = 60
		p.Requests = p.Requests[:p.Traced]
		oracle, err := NewOracle(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		tr, wall, err := Replay(context.Background(), p, oracle, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if wall <= 0 {
			t.Fatalf("%s: wall time %v", w, wall)
		}
		out := map[string]int64{}
		for name, st := range Aggregate(tr.Spans()) {
			out[name] = st.Calls
		}
		requests := int64(len(p.Prime) + p.Traced)
		if out["request"] != requests {
			t.Errorf("%s: %d request spans, want %d", w, out["request"], requests)
		}
		return out
	}
	for w, want := range map[string]struct{ some, none []string }{
		"warm": {
			some: []string{"serve.decode", "cache.lookup", "topo.route", "serve.metrics", "serve.encode"},
			none: []string{"netsim.compile", "netsim.sim_setup", "fault.sample", "fault.analyze", "ist.build"},
		},
		"simulate": {
			some: []string{"netsim.compile", "netsim.sim_setup", "netsim.sim_rounds"},
			none: []string{"fault.sample", "fault.analyze", "ist.build", "topo.route", "serve.metrics"},
		},
		"faulted": {
			some: []string{"netsim.compile", "netsim.sim_setup", "fault.sample", "fault.analyze", "ist.build", "topo.route"},
		},
		"cold": {
			some: []string{"serve.build", "serve.metrics"},
			none: []string{"netsim.compile", "fault.sample", "topo.route", "ist.build"},
		},
	} {
		got := calls(w)
		for _, s := range want.some {
			if got[s] == 0 {
				t.Errorf("%s: no %s calls", w, s)
			}
		}
		for _, s := range want.none {
			if got[s] != 0 {
				t.Errorf("%s: %d %s calls, want none", w, got[s], s)
			}
		}
		if w == "cold" && got["serve.build"] < got["request"]*9/10 {
			t.Errorf("cold: %d builds for %d requests; the cache should miss on nearly all", got["serve.build"], got["request"])
		}
	}
}
