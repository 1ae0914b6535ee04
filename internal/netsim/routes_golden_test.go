package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/ist"
	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

const routesGoldenPath = "testdata/routes_golden.json"

// routeDigest pins one compiled route table: the SHA-256 of its int16
// entries (little-endian, row-major u*n+dst) and, for multipath tables,
// the three pair counters.
type routeDigest struct {
	SHA256      string `json:"sha256"`
	Tree        int64  `json:"tree,omitempty"`
	Fallback    int64  `json:"fallback,omitempty"`
	Unreachable int64  `json:"unreachable,omitempty"`
}

func digestTable(table []int16) string {
	buf := make([]byte, 2*len(table))
	for i, x := range table {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(x))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// routeGoldens compiles every route table kind over the golden networks:
// the table router on healthy networks, and the fault-aware and
// multipath routers on Q6 and HSN(3,Q2) under node, link and chip faults.
func routeGoldens(t *testing.T) map[string]routeDigest {
	t.Helper()
	out := make(map[string]routeDigest)
	table := func(name string, net *Network) {
		tr, err := NewTableRouter(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = routeDigest{SHA256: digestTable(tr.table)}
	}
	aware := func(name string, net *Network) {
		r, err := NewFaultAwareRouter(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = routeDigest{SHA256: digestTable(r.dist)}
	}
	multipath := func(name string, net *Network, src TreeSource) {
		r, err := NewMultipathRouter(net, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = routeDigest{
			SHA256:      digestTable(r.port),
			Tree:        r.TreePairs.Load(),
			Fallback:    r.FallbackPairs.Load(),
			Unreachable: r.UnreachablePairs.Load(),
		}
	}

	w := superipg.CompleteCN(3, nucleus.Hypercube(2))
	cn, err := BuildSuperIPG(w, w.MustBuild(), 3, HypercubeRouter{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	table("cn-table", cn)

	q6 := mustHypercube(t, 6, 2, 8)
	hsn, _ := mustHSN(t, 3, 2, 8)
	table("q6/table", q6)
	table("hsn/table", hsn)
	cubeTrees := func(dst int) (*ist.Trees, error) { return ist.BuildHypercube(6, dst, 6) }
	for _, base := range []struct {
		name string
		net  *Network
	}{{"q6", q6}, {"hsn", hsn}} {
		links := len(undirectedLinks(base.net))
		for _, spec := range []fault.Spec{
			{Mode: fault.Nodes, Count: base.net.N / 16, Seed: 1},
			{Mode: fault.Links, Count: links / 20, Seed: 2},
			{Mode: fault.Links, Count: links / 2, Seed: 4},
			{Mode: fault.Chips, Count: 2, Seed: 3},
		} {
			net, _, err := Degrade(base.net, spec)
			if err != nil {
				t.Fatal(err)
			}
			prefix := fmt.Sprintf("%s/%s=%d", base.name, spec.Mode, spec.Count)
			aware(prefix+"/aware", net)
			multipath(prefix+"/multipath-generic2", net, GenericTreeSource(base.net, 2))
			if base.name == "q6" {
				multipath(prefix+"/multipath-cube6", net, cubeTrees)
			}
		}
	}
	aware("q6/healthy/aware", q6)
	multipath("q6/healthy/multipath-cube6", q6, cubeTrees)
	return out
}

// TestRouteTablesGolden pins every entry of the compiled route tables,
// not just the entries a simulated workload happens to read.  Rewrite
// the file with -update only when a routing change is intended.
func TestRouteTablesGolden(t *testing.T) {
	got := routeGoldens(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routesGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(routesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]routeDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d tables, the test compiles %d", len(want), len(got))
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden entry", name)
		} else if d != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, d, w)
		}
	}
}
