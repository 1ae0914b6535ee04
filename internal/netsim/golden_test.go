package netsim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats_golden.json from the current simulator")

const statsGoldenPath = "testdata/stats_golden.json"

// goldenCase is one pinned simulator run: a network, a workload and a
// seed, reduced to the exact Stats it produces.
type goldenCase struct {
	name string
	run  func(t *testing.T) Stats
}

// goldenRandom runs uniform random traffic and returns the measured Stats.
func goldenRandom(net *Network, seed int64, rate float64, warmup, measure int) func(t *testing.T) Stats {
	return func(t *testing.T) Stats {
		res, err := RunRandomUniform(net, seed, rate, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
}

// degraded applies spec to base and, if aware, swaps in the fault-aware
// router.
func degraded(t *testing.T, base *Network, spec fault.Spec, aware bool) *Network {
	t.Helper()
	net, _, err := Degrade(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	if aware {
		r, err := NewFaultAwareRouter(net)
		if err != nil {
			t.Fatal(err)
		}
		net.Router = r
	}
	return net
}

// goldenCases covers every router kind, the three workload shapes, and
// the capacity, single-port and fault code paths of the simulator.
func goldenCases(t *testing.T) []goldenCase {
	cube := mustHypercube(t, 6, 2, 4)
	fracCube := mustHypercube(t, 6, 2, 0.75) // off-chip links at 0.25/round
	torus, err := BuildTorus2D(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	hsn, _ := mustHSN(t, 3, 2, 3)
	fastHSN, _ := mustHSN(t, 3, 2, 1e9)
	w := superipg.CompleteCN(3, nucleus.Hypercube(2))
	cn, err := BuildSuperIPG(w, w.MustBuild(), 3, HypercubeRouter{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTableRouter(cn)
	if err != nil {
		t.Fatal(err)
	}
	cn.Router = tr
	single := mustHypercube(t, 6, 2, 4)
	single.SinglePort = true
	adaptive := mustHypercube(t, 6, 2, 2)
	adaptive.Router = AdaptiveHypercube{D: 6}
	transpose, err := Transpose(6)
	if err != nil {
		t.Fatal(err)
	}
	links := len(undirectedLinks(hsn))

	return []goldenCase{
		{"hypercube/random", goldenRandom(cube, 1, 0.3, 20, 50)},
		{"torus/random", goldenRandom(torus, 2, 0.2, 20, 50)},
		{"hsn-router/random", goldenRandom(hsn, 3, 0.25, 20, 50)},
		{"cn-table/random", goldenRandom(cn, 4, 0.2, 20, 50)},
		{"hypercube-fractional/random", goldenRandom(fracCube, 5, 0.1, 30, 60)},
		{"hypercube-single-port/random", goldenRandom(single, 6, 0.3, 20, 50)},
		{"hypercube/transpose", func(t *testing.T) Stats {
			res, err := RunPermutation(cube, 7, transpose, 5000)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		{"hsn-router/total-exchange", func(t *testing.T) Stats {
			res, err := RunTotalExchange(fastHSN, 8, 5000)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		{"adaptive-hypercube/bit-complement", func(t *testing.T) Stats {
			res, err := RunPermutation(adaptive, 9, BitComplement(6), 5000)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		{"torus/hot-spot", func(t *testing.T) Stats {
			res, err := RunHotSpot(torus, 10, 0.2, 0.1, 5, 20, 50)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		{"hypercube-node-faults-oblivious/random", func(t *testing.T) Stats {
			return goldenRandom(degraded(t, cube, fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 11}, false), 11, 0.2, 20, 50)(t)
		}},
		{"hsn-link-faults-oblivious/random", func(t *testing.T) Stats {
			return goldenRandom(degraded(t, hsn, fault.Spec{Mode: fault.Links, Count: links / 10, Seed: 12}, false), 12, 0.2, 20, 50)(t)
		}},
		{"torus-node-faults-aware/random", func(t *testing.T) Stats {
			return goldenRandom(degraded(t, torus, fault.Spec{Mode: fault.Nodes, Count: 4, Seed: 13}, true), 13, 0.2, 20, 50)(t)
		}},
		{"hsn-chip-faults-aware/total-exchange", func(t *testing.T) Stats {
			net := degraded(t, fastHSN, fault.Spec{Mode: fault.Chips, Count: 2, Seed: 14}, true)
			res, err := RunTotalExchange(net, 14, 5000)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
	}
}

// TestStatsGolden pins the exact Stats of every golden case.  Any change
// to the simulator's arithmetic, iteration order or generator shows up
// here; rewrite the file with -update only when the change is intended.
func TestStatsGolden(t *testing.T) {
	got := make(map[string]Stats)
	for _, c := range goldenCases(t) {
		got[c.name] = c.run(t)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(statsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(statsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(got))
	}
	for name, st := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if st != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, st, w)
		}
	}
}
