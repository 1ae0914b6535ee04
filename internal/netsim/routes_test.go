package netsim

import (
	"runtime"
	"strings"
	"testing"

	"ipg/internal/fault"
)

// TestCompileRoutesErrors: an oversized network is refused before any
// table is allocated, and a failing compile reports the lowest failing
// destination whatever the worker count.
func TestCompileRoutesErrors(t *testing.T) {
	big, err := BuildHypercube(15, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFaultAwareRouter(big); err == nil || !strings.Contains(err.Error(), "FaultAwareRouter limited to 16384 nodes, got 32768") {
		t.Fatalf("oversized network: err = %v", err)
	}

	// A table router needs every pair connected; dead nodes break that.
	net, _, err := Degrade(mustHypercube(t, 6, 2, 4), fault.Spec{Mode: fault.Nodes, Count: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		_, err := NewTableRouter(net)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: table router compiled on a network with dead nodes", procs)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("GOMAXPROCS=%d: error %q, want %q", procs, err, want)
		}
	}
}
