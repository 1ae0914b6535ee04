package netsim

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkNetsimShortRun measures what one /v1/simulate request of the
// random workload costs: New plus 5 warm-up and 20 measured rounds at
// rate 0.1, on hypercubes Q6 (64 nodes) to Q13 (8192 nodes).  Each run is
// split into GOMAXPROCS shards whatever New's inline threshold says, so
// `-cpu 1,2` tabulates inline rounds against two shards at every size;
// that table is the evidence for inlineNodes.
func BenchmarkNetsimShortRun(b *testing.B) {
	for d := 6; d <= 13; d++ {
		net, err := BuildHypercube(d, 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%d", d), func(b *testing.B) {
			workers := runtime.GOMAXPROCS(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := newSim(net, 1, workers)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.runRandom(context.Background(), 0.1, 5, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
