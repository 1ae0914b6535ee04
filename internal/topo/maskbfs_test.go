package topo

import (
	"math/rand"
	"testing"
)

// randomMasks builds random vertex and arc masks over c.  Arc masks are
// always symmetric (both directions of an edge die together), matching the
// contract of the fault layer.
func randomMasks(r *rand.Rand, c *CSR) (vdead, adead []uint64) {
	n := c.N()
	vdead = NewBitset(n)
	adead = NewBitset(c.Arcs())
	for v := 0; v < n; v++ {
		if r.Intn(8) == 0 {
			SetBit(vdead, v)
		}
	}
	for u := 0; u < n; u++ {
		first := c.RowStart(u)
		for j, v := range c.Row(u) {
			if int(v) > u && r.Intn(8) == 0 {
				SetBit(adead, first+j)
				if back := c.ArcIndex(int(v), u); back >= 0 {
					SetBit(adead, back)
				}
			}
		}
	}
	return vdead, adead
}

// TestMaskedNilMasksMatchUnmasked: with nil masks the general scalar
// kernel must reproduce the tight CSR kernel bit for bit.
func TestMaskedNilMasksMatchUnmasked(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 16 + r.Intn(200)
		c := randomCSR(t, r, n, trial%2 == 0)
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		dist2 := make([]int32, n)
		queue2 := make([]int32, 0, n)
		for src := 0; src < n; src++ {
			ecc, sum := c.BFSInto(src, dist, queue)
			mecc, msum, reached, _ := BFSMaskedSourceInto(c, src, nil, nil, dist2, queue2, nil)
			// The tight kernel encodes disconnection as ecc = -1; the
			// general kernel reports the reached count instead.
			if ecc >= 0 {
				if mecc != ecc || msum != sum || int(reached) != n {
					t.Fatalf("trial %d src %d: masked (%d,%d,%d) vs unmasked (%d,%d)", trial, src, mecc, msum, reached, ecc, sum)
				}
			} else if int(reached) == n {
				t.Fatalf("trial %d src %d: unmasked says disconnected, masked reached all %d", trial, src, n)
			}
			for v := 0; v < n; v++ {
				if ecc >= 0 && dist[v] != dist2[v] {
					t.Fatalf("trial %d src %d: dist[%d] = %d vs %d", trial, src, v, dist[v], dist2[v])
				}
			}
		}
	}
}

// TestMaskedMSBFSMatchesMaskedScalar: the general 64-source kernel must
// agree with the general scalar kernel on ecc, distance sum, reached count
// and every distance for every source, under random vertex+arc masks.
func TestMaskedMSBFSMatchesMaskedScalar(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 16 + r.Intn(200)
		c := randomCSR(t, r, n, trial%2 == 0)
		vdead, adead := randomMasks(r, c)
		var sources []int32
		for v := 0; v < n && len(sources) < msbfsBatch; v++ {
			if !Bit(vdead, v) {
				sources = append(sources, int32(v))
			}
		}
		if len(sources) == 0 {
			continue
		}
		scratch := NewMSBFSScratch(n)
		ecc := make([]int32, len(sources))
		sum := make([]int64, len(sources))
		reached := make([]int32, len(sources))
		mdist := make([]int32, len(sources)*n)
		MSBFSMaskedSourceInto(c, sources, scratch, vdead, adead, ecc, sum, reached, mdist, nil)
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		for i, src := range sources {
			secc, ssum, sreached, _ := BFSMaskedSourceInto(c, int(src), vdead, adead, dist, queue, nil)
			if ecc[i] != secc || sum[i] != ssum || reached[i] != sreached {
				t.Fatalf("trial %d src %d: msbfs (%d,%d,%d) vs scalar (%d,%d,%d)",
					trial, src, ecc[i], sum[i], reached[i], secc, ssum, sreached)
			}
			for v := 0; v < n; v++ {
				if mdist[i*n+v] != dist[v] {
					t.Fatalf("trial %d src %d: msbfs dist[%d] = %d, scalar %d", trial, src, v, mdist[i*n+v], dist[v])
				}
			}
		}
	}
}

// TestMaskedDeadSourcePanics: sweeping from a dead source is a programming
// error both general kernels refuse.
func TestMaskedDeadSourcePanics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := randomCSR(t, r, 32, true)
	vdead := NewBitset(32)
	SetBit(vdead, 3)
	mustPanic(t, "msbfs", func() {
		MSBFSMaskedSourceInto(c, []int32{3}, NewMSBFSScratch(32), vdead, nil, make([]int32, 1), make([]int64, 1), make([]int32, 1), nil, nil)
	})
	mustPanic(t, "scalar", func() {
		BFSMaskedSourceInto(c, 3, vdead, nil, make([]int32, 32), nil, nil)
	})
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected a panic", name)
		}
	}()
	f()
}

// TestArcAccessors pins the ArcIndex/ArcSource/ArcTarget/RowStart
// round-trip the fault layer's link sampling depends on.
func TestArcAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := randomCSR(t, r, 64, true)
	for u := 0; u < c.N(); u++ {
		first := c.RowStart(u)
		for j, v := range c.Row(u) {
			i := first + j
			if got := c.ArcIndex(u, int(v)); got != i {
				t.Fatalf("ArcIndex(%d,%d) = %d, want %d", u, v, got, i)
			}
			if got := c.ArcSource(i); got != u {
				t.Fatalf("ArcSource(%d) = %d, want %d", i, got, u)
			}
			if got := c.ArcTarget(i); got != v {
				t.Fatalf("ArcTarget(%d) = %d, want %d", i, got, v)
			}
		}
		if c.ArcIndex(u, u) >= 0 == !c.HasArc(u, u) {
			t.Fatalf("ArcIndex/HasArc disagree at self-loop %d", u)
		}
	}
}
