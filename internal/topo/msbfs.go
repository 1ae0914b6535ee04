package topo

//lint:file-ignore ctxflow MSBFS processes one 64-source batch per call; graph's batch drivers and the fault census poll ctx between batches, bounding cancellation latency to one kernel invocation

import "math/bits"

// This file holds the batched multi-source BFS (MSBFS) scratch, the tight
// 64-source kernel over an unmasked CSR arena, and the MSBFSSourceInto
// dispatcher (bfs.go lists all four kernels).  Up to 64 BFS traversals
// advance together, one uint64 visited/frontier word per vertex, so every
// edge is scanned once per *batch* instead of once per source.
// All-sources sweeps (diameter, average distance, the intercluster
// quotient metrics) are the dominant cost of the paper's headline tables;
// batching cuts their arena traffic by up to 64x and replaces the
// per-edge branch of the scalar kernel with a handful of word operations.
//
// Both 64-source kernels are level-synchronous with a
// direction-optimizing switch: a sparse frontier is expanded top-down
// (scan the frontier vertices' rows), a dense one bottom-up (scan the
// rows of still-unfinished vertices and gather frontier bits), following
// Beamer et al.'s direction-optimizing BFS adapted to the bit-parallel
// setting.
//
// MSBFS requires symmetric adjacency: the bottom-up step reads Row(v) as
// the in-neighbors of v, which is only correct when every arc has its
// reverse.  Directed quotients must keep using the scalar BFSInto.

// msbfsBatch is the source-batch width: one bit of a uint64 per source.
const msbfsBatch = 64

// msbfsDenseCut is the frontier density (as a fraction 1/msbfsDenseCut of
// the vertex count) above which a level switches to bottom-up expansion.
const msbfsDenseCut = 8

// MSBFSScratch is the reusable state of one MSBFS call: three uint64
// words per vertex plus the frontier vertex lists.  A scratch may be
// reused across calls and topologies of any size (buffers grow on
// demand); it must not be shared between concurrent calls.
type MSBFSScratch struct {
	visited  []uint64 // visited[v] bit i: source i has reached v
	frontier []uint64 // current-level bits per vertex
	next     []uint64 // gathered bits for the level under construction
	cur      []int32  // vertices with nonzero frontier word
	touched  []int32  // vertices with nonzero next word this level
}

// NewMSBFSScratch returns a scratch sized for n vertices.
func NewMSBFSScratch(n int) *MSBFSScratch {
	s := &MSBFSScratch{}
	s.ensure(n)
	return s
}

// ensure sizes the buffers for n vertices, reusing capacity.
func (s *MSBFSScratch) ensure(n int) {
	if cap(s.visited) < n {
		s.visited = make([]uint64, n)
		s.frontier = make([]uint64, n)
		s.next = make([]uint64, n)
	}
	s.visited = s.visited[:n]
	s.frontier = s.frontier[:n]
	s.next = s.next[:n]
	s.cur = s.cur[:0]
	s.touched = s.touched[:0]
}

// MSBFSInto runs BFS from up to 64 sources simultaneously over a
// symmetric CSR.  Per source i it writes ecc[i] and sum[i] under the same
// contract as BFSInto: ecc[i] is the eccentricity of sources[i], or -1
// when some vertex is unreachable (sum[i] then covers the reached
// vertices only).  If dist is non-nil it must have length
// len(sources)*c.N() and receives the full distance vector of source i in
// dist[i*n:(i+1)*n], -1 marking unreachable vertices — the same flat
// strided layout the routers use.  The call is allocation-free once the
// scratch has grown to c.N() vertices.
func (c *CSR) MSBFSInto(sources []int32, s *MSBFSScratch, ecc []int32, sum []int64, dist []int32) {
	n := c.N()
	ns := len(sources)
	if ns == 0 || ns > msbfsBatch {
		panic("topo: MSBFSInto needs 1..64 sources")
	}
	if len(ecc) < ns || len(sum) < ns {
		panic("topo: MSBFSInto ecc/sum shorter than sources")
	}
	if dist != nil && len(dist) < ns*n {
		panic("topo: MSBFSInto dist shorter than len(sources)*N")
	}
	s.ensure(n)
	visited, frontier, next := s.visited, s.frontier, s.next
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
	var reached [msbfsBatch]int32
	s.cur = s.cur[:0]
	for i, src := range sources {
		if frontier[src] == 0 {
			s.cur = append(s.cur, src)
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
	arena, off := c.arena, c.off
	var cnt [msbfsBatch]int32
	for level := int32(1); len(s.cur) > 0; level++ {
		s.touched = s.touched[:0]
		if len(s.cur) > n/msbfsDenseCut {
			// Bottom-up: every vertex some source has not reached gathers
			// the frontier bits of its (symmetric) neighbors.
			for v := 0; v < n; v++ {
				if visited[v] == full {
					continue
				}
				var acc uint64
				for _, u := range arena[off[v]:off[v+1]] {
					acc |= frontier[u]
				}
				if acc&^visited[v] != 0 {
					next[v] = acc
					//lint:ignore indextrunc v < n <= MaxVertices (math.MaxInt32)
					s.touched = append(s.touched, int32(v))
				}
			}
		} else {
			// Top-down: frontier vertices push their bits along their rows.
			for _, u := range s.cur {
				f := frontier[u]
				for _, v := range arena[off[u]:off[u+1]] {
					if f&^visited[v] != 0 {
						if next[v] == 0 {
							s.touched = append(s.touched, v)
						}
						next[v] |= f
					}
				}
			}
		}
		for _, u := range s.cur {
			frontier[u] = 0
		}
		s.cur = s.cur[:0]
		for i := 0; i < ns; i++ {
			cnt[i] = 0
		}
		for _, v := range s.touched {
			newBits := next[v] &^ visited[v]
			next[v] = 0
			if newBits == 0 {
				continue
			}
			visited[v] |= newBits
			frontier[v] = newBits
			s.cur = append(s.cur, v)
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
	//lint:ignore indextrunc n <= MaxVertices (math.MaxInt32) by construction
	nn := int32(n)
	for i := 0; i < ns; i++ {
		if reached[i] != nn {
			ecc[i] = -1
		}
	}
}

// MSBFSSourceInto is MSBFSInto over any symmetric Source, with the same
// contract (per-source ecc/sum, ecc[i] = -1 on disconnection, optional
// flat strided dist).  nbuf is neighbor scratch, returned possibly grown.
func MSBFSSourceInto(s Source, sources []int32, sc *MSBFSScratch, ecc []int32, sum []int64, dist []int32, nbuf []int32) []int32 {
	if c, ok := s.(*CSR); ok {
		c.MSBFSInto(sources, sc, ecc, sum, dist)
		return nbuf
	}
	var reached [msbfsBatch]int32
	nbuf = MSBFSMaskedSourceInto(s, sources, sc, nil, nil, ecc, sum, reached[:], dist, nbuf)
	for i := range sources {
		if int(reached[i]) != s.N() {
			ecc[i] = -1
		}
	}
	return nbuf
}
