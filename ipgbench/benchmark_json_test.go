package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTheReport pins that BENCHMARK.json lists
// exactly the gated workloads and the metrics, with their units, this
// command reports.
func TestBenchmarkJSONMatchesTheReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, gatedWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, the command gates %v", names, gatedWorkloads)
	}

	page, err := ParseProm(mustRead(t, "testdata/metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ws := []*window{{
		samples: []sample{{end: time.Second, lat: time.Millisecond, ok: true}},
		elapsed: 2 * time.Second,
		before:  page,
		after:   page,
	}}
	check := func(kind string, listed []struct{ Name, Unit string }, got map[string]metric) {
		t.Helper()
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		have := map[string]string{}
		for name, m := range got {
			have[name] = m.Unit
		}
		if !reflect.DeepEqual(have, want) {
			t.Errorf("%s metrics differ:\n  BENCHMARK.json %v\n  reported       %v", kind, sortedKeys(want), sortedKeys(have))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd(ws, []float64{1}))
	layer, err := perLayer(ws, map[string]*StageStats{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	check("per_layer", spec.PerLayer, layer)
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}
