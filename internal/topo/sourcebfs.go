package topo

//lint:file-ignore ctxflow the general kernels process one traversal (or one 64-source batch) per call; the metric drivers and the fault census poll ctx between calls, bounding cancellation latency to one kernel invocation

import (
	"math"
	"math/bits"
)

// This file holds the two general BFS kernels (bfs.go lists all four):
// one scalar and one 64-source, each over any Source and each taking an
// optional vertex mask and an optional arc mask.  A mask is a bitset: bit
// v of vdead hides vertex v, bit i of adead hides the arc at arena index i
// (so arc masks need a *CSR source).  The fault layer (internal/fault)
// builds the masks; a nil mask hides nothing, and with both masks nil the
// kernels visit exactly the vertices and arcs the tight CSR kernels do, in
// the same order.
//
// Neither mask is tested in an arc loop.  Dead vertices are marked as
// already visited once per call, so no traversal ever reaches them; arc
// masks are applied per row, when the row is read (see rows).  An
// unmasked CSR row is a zero-copy arena slice, any other source's row
// comes from NeighborsInto with a reused buffer.
//
// A degraded topology is routinely disconnected, so the general kernels
// do not encode disconnection as ecc = -1: they return ecc within the
// source's component plus the reached-vertex count, which tells a small
// component from a dead graph.

// NewBitset returns a bitset able to hold n bits, all zero.
func NewBitset(n int) []uint64 { return make([]uint64, (n+63)/64) }

// SetBit sets bit i of bs.
func SetBit(bs []uint64, i int) { bs[i>>6] |= 1 << (uint(i) & 63) }

// Bit reports bit i of bs, treating a nil bitset as all-zero.
func Bit(bs []uint64, i int) bool {
	return bs != nil && bs[i>>6]&(1<<(uint(i)&63)) != 0
}

// fillBits stores x at xs[i] for every set bit i of bs.
func fillBits[T any](bs []uint64, xs []T, x T) {
	for w, word := range bs {
		for ; word != 0; word &= word - 1 {
			xs[w<<6|bits.TrailingZeros64(word)] = x
		}
	}
}

// rows reads neighbor rows for the general kernels.  A plain row (a CSR
// without an arc mask) is the zero-copy arena slice, which the kernels
// take inline; any other row comes from next.
type rows struct {
	c     *CSR // non-nil for an arena source
	plain bool // c != nil and no arc mask
	s     Source
	adead []uint64
	buf   []int32 // scratch for rows next builds
}

func newRows(s Source, adead []uint64, buf []int32) rows {
	c, _ := s.(*CSR)
	if c == nil && adead != nil {
		panic("topo: arc masks need a *CSR source")
	}
	return rows{c: c, plain: c != nil && adead == nil, s: s, adead: adead, buf: buf}
}

// next returns u's row when it is not plain: NeighborsInto for a non-CSR
// source, else the arena row without the arcs set in adead (zero-copy
// when none of them is set).  Filtering whole rows keeps the arc mask
// out of the kernels' arc loops.
func (rs *rows) next(u int) []int32 {
	if rs.c == nil {
		rs.buf = rs.s.NeighborsInto(u, rs.buf)
		return rs.buf
	}
	row := rs.c.Row(u)
	base := rs.c.RowStart(u)
	for j := range row {
		if Bit(rs.adead, base+j) {
			rs.buf = append(rs.buf[:0], row[:j]...)
			for j++; j < len(row); j++ {
				if !Bit(rs.adead, base+j) {
					rs.buf = append(rs.buf, row[j])
				}
			}
			return rs.buf
		}
	}
	return row
}

// BFSMaskedSourceInto is the general scalar kernel: BFS from src over any
// Source, skipping vertices set in vdead and arcs set in adead (either or
// both may be nil).  src must be alive.  dist (length s.N(), fully
// overwritten; -1 marks unreached or dead vertices) and queue are
// caller-owned scratch as in BFSInto; nbuf is row scratch for non-CSR
// sources and masked rows, returned possibly grown.  It returns the
// eccentricity of src within its component, the sum of distances to
// reached vertices, and the reached-vertex count (including src).
func BFSMaskedSourceInto(s Source, src int, vdead, adead []uint64, dist, queue, nbuf []int32) (ecc int32, sum int64, reached int32, _ []int32) {
	rs := newRows(s, adead, nbuf)
	if Bit(vdead, src) {
		panic("topo: BFSMaskedSourceInto source is dead")
	}
	for i := range dist {
		dist[i] = -1
	}
	// A non-negative mark makes dead vertices look visited; they are
	// reset to -1 after the traversal.
	fillBits(vdead, dist, math.MaxInt32)
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, int32(src))
	reached = 1
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		if du > ecc {
			ecc = du
		}
		sum += int64(du)
		var r []int32
		if rs.plain {
			r = rs.c.Row(int(u))
		} else {
			r = rs.next(int(u))
		}
		for _, v := range r {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
				reached++
			}
		}
	}
	fillBits(vdead, dist, -1)
	return ecc, sum, reached, rs.buf
}

// MSBFSMaskedSourceInto is the general 64-source kernel: up to 64 BFS
// traversals advance together over a symmetric Source, skipping vertices
// set in vdead and arcs set in adead (either may be nil; a failed
// undirected edge must have both of its arc directions set, which keeps
// the bottom-up gather, reading a row as in-neighbors, correct).  All
// sources must be alive.  Per source i it writes ecc[i] (eccentricity
// within the source's component), sum[i] (sum of distances to reached
// vertices) and reached[i] (vertices reached, including the source).  If
// dist is non-nil it must have length len(sources)*s.N() and receives
// source i's distances in dist[i*n:(i+1)*n], -1 marking unreached or dead
// vertices.  nbuf is row scratch for non-CSR sources and masked rows,
// returned possibly grown.
func MSBFSMaskedSourceInto(s Source, sources []int32, sc *MSBFSScratch, vdead, adead []uint64, ecc []int32, sum []int64, reached []int32, dist []int32, nbuf []int32) []int32 {
	rs := newRows(s, adead, nbuf)
	n := s.N()
	ns := len(sources)
	if ns == 0 || ns > msbfsBatch {
		panic("topo: MSBFSMaskedSourceInto needs 1..64 sources")
	}
	if len(ecc) < ns || len(sum) < ns || len(reached) < ns {
		panic("topo: MSBFSMaskedSourceInto ecc/sum/reached shorter than sources")
	}
	if dist != nil && len(dist) < ns*n {
		panic("topo: MSBFSMaskedSourceInto dist shorter than len(sources)*N")
	}
	sc.ensure(n)
	visited, frontier, next := sc.visited, sc.frontier, sc.next
	for i := range visited {
		visited[i] = 0
		frontier[i] = 0
		next[i] = 0
	}
	if dist != nil {
		for i := range dist[:ns*n] {
			dist[i] = -1
		}
	}
	full := ^uint64(0) >> (msbfsBatch - ns)
	// Dead vertices start visited by every lane: top-down pushes skip
	// them, the bottom-up pass skips them, and their frontier word stays
	// zero, so they add nothing to a neighbor's gather.
	fillBits(vdead, visited, full)
	sc.cur = sc.cur[:0]
	for i, src := range sources {
		if Bit(vdead, int(src)) {
			panic("topo: MSBFSMaskedSourceInto source is dead")
		}
		if frontier[src] == 0 {
			sc.cur = append(sc.cur, src)
		}
		bit := uint64(1) << i
		frontier[src] |= bit
		visited[src] |= bit
		ecc[i], sum[i] = 0, 0
		reached[i] = 1
		if dist != nil {
			dist[i*n+int(src)] = 0
		}
	}
	var cnt [msbfsBatch]int32
	for level := int32(1); len(sc.cur) > 0; level++ {
		sc.touched = sc.touched[:0]
		if len(sc.cur) > n/msbfsDenseCut {
			sc.gather(&rs, full)
		} else {
			sc.push(&rs)
		}
		for _, u := range sc.cur {
			frontier[u] = 0
		}
		sc.cur = sc.cur[:0]
		for i := 0; i < ns; i++ {
			cnt[i] = 0
		}
		for _, v := range sc.touched {
			newBits := next[v] &^ visited[v]
			next[v] = 0
			if newBits == 0 {
				continue
			}
			visited[v] |= newBits
			frontier[v] = newBits
			sc.cur = append(sc.cur, v)
			for b := newBits; b != 0; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				cnt[i]++
				if dist != nil {
					dist[i*n+int(v)] = level
				}
			}
		}
		for i := 0; i < ns; i++ {
			if cnt[i] > 0 {
				ecc[i] = level
				sum[i] += int64(level) * int64(cnt[i])
				reached[i] += cnt[i]
			}
		}
	}
	return rs.buf
}

// gather is one bottom-up level of the general 64-source kernel: every
// vertex some lane has not reached ORs in the frontier bits of its row.
func (sc *MSBFSScratch) gather(rs *rows, full uint64) {
	visited, frontier, next := sc.visited, sc.frontier, sc.next
	for v, seen := range visited {
		if seen == full {
			continue
		}
		var r []int32
		if rs.plain {
			r = rs.c.Row(v)
		} else {
			r = rs.next(v)
		}
		var acc uint64
		for _, u := range r {
			acc |= frontier[u]
		}
		if acc&^seen != 0 {
			next[v] = acc
			//lint:ignore indextrunc v < n <= MaxVertices (math.MaxInt32)
			sc.touched = append(sc.touched, int32(v))
		}
	}
}

// push is one top-down level of the general 64-source kernel: every
// frontier vertex pushes its bits to the unvisited lanes of its row.
func (sc *MSBFSScratch) push(rs *rows) {
	visited, frontier, next := sc.visited, sc.frontier, sc.next
	for _, u := range sc.cur {
		f := frontier[u]
		var r []int32
		if rs.plain {
			r = rs.c.Row(int(u))
		} else {
			r = rs.next(int(u))
		}
		for _, v := range r {
			if f&^visited[v] != 0 {
				if next[v] == 0 {
					sc.touched = append(sc.touched, v)
				}
				next[v] |= f
			}
		}
	}
}
