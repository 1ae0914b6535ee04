package topo

import (
	"math/rand"
	"testing"
)

// opaqueSource hides a CSR behind the Source interface, so the kernels
// cannot see the *CSR type and must read rows through NeighborsInto.
type opaqueSource struct{ c *CSR }

func (o opaqueSource) N() int           { return o.c.N() }
func (o opaqueSource) DegreeBound() int { return o.c.DegreeBound() }
func (o opaqueSource) NeighborsInto(v int, buf []int32) []int32 {
	return o.c.NeighborsInto(v, buf)
}

// TestGeneralKernelsSourcePathMatchesCSR runs both general kernels on a
// CSR (arena rows) and on the same CSR behind opaqueSource (NeighborsInto
// rows), with nil and random vertex masks, and requires equal ecc, sum,
// reached count and distances.  The dispatchers' general path must match
// the tight CSR kernels the same way.
func TestGeneralKernelsSourcePathMatchesCSR(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 16 + r.Intn(200)
		c := randomCSR(t, r, n, trial%3 != 0)
		o := opaqueSource{c}
		vdead, _ := randomMasks(r, c)
		for _, mask := range [][]uint64{nil, vdead} {
			var sources []int32
			for v := 0; v < n && len(sources) < msbfsBatch; v++ {
				if !Bit(mask, v) {
					sources = append(sources, int32(v))
				}
			}
			ns := len(sources)
			type out struct {
				ecc     []int32
				sum     []int64
				reached []int32
				dist    []int32
			}
			run := func(s Source) out {
				res := out{make([]int32, ns), make([]int64, ns), make([]int32, ns), make([]int32, ns*n)}
				MSBFSMaskedSourceInto(s, sources, NewMSBFSScratch(n), mask, nil, res.ecc, res.sum, res.reached, res.dist, nil)
				return res
			}
			a, b := run(c), run(o)
			dist := make([]int32, n)
			odist := make([]int32, n)
			for i, src := range sources {
				if a.ecc[i] != b.ecc[i] || a.sum[i] != b.sum[i] || a.reached[i] != b.reached[i] {
					t.Fatalf("trial %d src %d: msbfs CSR (%d,%d,%d) vs Source (%d,%d,%d)",
						trial, src, a.ecc[i], a.sum[i], a.reached[i], b.ecc[i], b.sum[i], b.reached[i])
				}
				cEcc, cSum, cReached, _ := BFSMaskedSourceInto(c, int(src), mask, nil, dist, nil, nil)
				oEcc, oSum, oReached, _ := BFSMaskedSourceInto(o, int(src), mask, nil, odist, nil, nil)
				if cEcc != oEcc || cSum != oSum || cReached != oReached || cEcc != a.ecc[i] || cSum != a.sum[i] || cReached != a.reached[i] {
					t.Fatalf("trial %d src %d: scalar CSR (%d,%d,%d) vs Source (%d,%d,%d) vs msbfs (%d,%d,%d)",
						trial, src, cEcc, cSum, cReached, oEcc, oSum, oReached, a.ecc[i], a.sum[i], a.reached[i])
				}
				for v := 0; v < n; v++ {
					if dist[v] != odist[v] || a.dist[i*n+v] != b.dist[i*n+v] || dist[v] != a.dist[i*n+v] {
						t.Fatalf("trial %d src %d: dist[%d] scalar CSR %d, scalar Source %d, msbfs CSR %d, msbfs Source %d",
							trial, src, v, dist[v], odist[v], a.dist[i*n+v], b.dist[i*n+v])
					}
				}
			}
		}

		// The unmasked dispatchers: opaqueSource takes the general path,
		// the CSR the tight one; ecc = -1 must mark disconnection on both.
		sources := make([]int32, 0, msbfsBatch)
		for v := 0; v < n && v < msbfsBatch; v++ {
			sources = append(sources, int32(v))
		}
		ns := len(sources)
		ecc, oecc := make([]int32, ns), make([]int32, ns)
		sum, osum := make([]int64, ns), make([]int64, ns)
		dist, odist := make([]int32, ns*n), make([]int32, ns*n)
		MSBFSSourceInto(c, sources, NewMSBFSScratch(n), ecc, sum, dist, nil)
		MSBFSSourceInto(o, sources, NewMSBFSScratch(n), oecc, osum, odist, nil)
		for i := range sources {
			if ecc[i] != oecc[i] || sum[i] != osum[i] {
				t.Fatalf("trial %d lane %d: MSBFSSourceInto CSR (%d,%d) vs Source (%d,%d)", trial, i, ecc[i], sum[i], oecc[i], osum[i])
			}
		}
		for i := range dist {
			if dist[i] != odist[i] {
				t.Fatalf("trial %d: MSBFSSourceInto dist[%d] CSR %d vs Source %d", trial, i, dist[i], odist[i])
			}
		}
	}
}

// TestArcMaskNeedsCSR: arc masks address arena indices, so the general
// kernels refuse them on any other source.
func TestArcMaskNeedsCSR(t *testing.T) {
	c := randomCSR(t, rand.New(rand.NewSource(2)), 16, true)
	adead := NewBitset(c.Arcs())
	o := opaqueSource{c}
	mustPanic(t, "scalar", func() { BFSMaskedSourceInto(o, 0, nil, adead, make([]int32, 16), nil, nil) })
	mustPanic(t, "msbfs", func() {
		MSBFSMaskedSourceInto(o, []int32{0}, NewMSBFSScratch(16), nil, adead, make([]int32, 1), make([]int64, 1), make([]int32, 1), nil, nil)
	})
}
