// Package graph provides a compact undirected-graph representation and the
// structural algorithms used throughout the reproduction: breadth-first
// search, distance statistics, degree statistics, connectivity, Cartesian
// products, and bisection search.
//
// The adjacency lives in a single CSR arena (internal/topo): large family
// graphs stream their edges straight into it via FromStream, while
// incremental AddEdge construction buffers edges and finalizes to CSR on
// the first read.  Either way, every algorithm below iterates the flat
// arena, and Graph satisfies the topo.Topology interface.
package graph

import (
	"fmt"

	"ipg/internal/topo"
)

//lint:file-ignore indextrunc vertex ids in this file are < g.n, which NewChecked bounds to MaxVertices (math.MaxInt32) at construction

// Graph is a simple undirected graph on vertices 0..N-1.  Self-loops are
// not stored (IPG generator actions that fix a node produce no edge);
// parallel edges are collapsed.  Neighbor lists are sorted ascending.
type Graph struct {
	n int
	m int // number of edges

	// csr is the finalized adjacency; nil while AddEdge-buffered edges are
	// pending in eu/ev.
	csr *topo.CSR

	// eu/ev buffer AddEdge endpoints (deduplicated via eset) until a read
	// finalizes them into csr.
	eu, ev []int32
	eset   map[uint64]struct{}

	// vt records that the construction proved vertex-transitivity (see
	// MarkVertexTransitive); any mutation clears it.
	vt bool
}

// MarkVertexTransitive records that the graph is vertex-transitive — its
// automorphism group acts transitively on vertices, so every vertex has
// the same eccentricity and distance multiset.  Only family builders whose
// construction proves transitivity (the Cayley families: hypercubes, tori,
// generalized hypercubes, CCC, wrapped butterflies, and their Cartesian
// products) may call this; the parallel metric entry points then collapse
// the all-sources sweep to a single BFS.  AddEdge clears the mark.
func (g *Graph) MarkVertexTransitive() { g.vt = true }

// VertexTransitive reports whether the graph was marked vertex-transitive
// by its builder (the topo.Symmetric capability).
func (g *Graph) VertexTransitive() bool { return g.vt }

// MaxVertices is the largest vertex count the int32 adjacency storage can
// address.  Super-IPG configurations beyond this must be sharded before
// materialization; silently wrapping ids would corrupt every metric.
const MaxVertices = topo.MaxVertices

// CheckVertexCount reports whether n vertices fit the int32 adjacency
// representation, as an error suitable for propagation.
func CheckVertexCount(n int) error {
	if n < 0 || n > MaxVertices {
		return fmt.Errorf("graph: vertex count %d outside [0, %d]", n, MaxVertices)
	}
	return nil
}

// NewChecked returns an empty graph on n vertices, or an error if n
// overflows the int32 vertex representation.
func NewChecked(n int) (*Graph, error) {
	if err := CheckVertexCount(n); err != nil {
		return nil, err
	}
	return &Graph{n: n}, nil
}

// New returns an empty graph on n vertices.  It panics if n overflows the
// int32 vertex representation; scale-sensitive callers should use
// NewChecked.
func New(n int) *Graph {
	g, err := NewChecked(n)
	if err != nil {
		panic("graph.New: " + err.Error())
	}
	return g
}

// FromStreamChecked builds a graph on n vertices directly in CSR form from
// a replayable edge stream (see topo.Build): stream is invoked twice and
// must emit the same edge multiset both times.  Self-loops are dropped and
// duplicates collapse, so emitting each edge from both endpoints is fine.
func FromStreamChecked(n int, stream func(edge func(u, v int))) (*Graph, error) {
	if err := CheckVertexCount(n); err != nil {
		return nil, err
	}
	csr, err := topo.Build(n, stream)
	if err != nil {
		return nil, err
	}
	return &Graph{n: n, m: csr.Arcs() / 2, csr: csr}, nil
}

// FromStream is FromStreamChecked that panics on error, for builders whose
// parameters are already bounds-checked.
func FromStream(n int, stream func(edge func(u, v int))) *Graph {
	g, err := FromStreamChecked(n, stream)
	if err != nil {
		panic("graph.FromStream: " + err.Error())
	}
	return g
}

// ensure finalizes pending AddEdge edges into the CSR arena.  Every reader
// entry point calls it before touching adjacency; the parallel algorithms
// call it before spawning workers, so the finalized CSR is read-only and
// race-free under concurrent BFS.
func (g *Graph) ensure() *topo.CSR {
	if g.csr == nil {
		csr, err := topo.Build(g.n, func(edge func(u, v int)) {
			//lint:ignore ctxflow the edge replay is bounded by MaxVertices/MaxArcs (checked in AddEdge) and runs once per graph — readers memoize the CSR, and serve wraps builds in its worker-slot timeout
			for i := range g.eu {
				edge(int(g.eu[i]), int(g.ev[i]))
			}
		})
		if err != nil {
			panic("graph: " + err.Error())
		}
		g.csr = csr
	}
	return g.csr
}

// edgeKey packs an ordered pair for the AddEdge dedup set.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// thaw re-opens a stream-built graph for AddEdge mutation by spilling the
// CSR edges back into the pending buffers.  Rarely hit: only when a caller
// mutates a family graph after construction.
func (g *Graph) thaw() {
	if g.eset != nil || g.csr == nil {
		return
	}
	g.eset = make(map[uint64]struct{}, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.csr.Row(u) {
			if int(v) > u {
				g.eu = append(g.eu, int32(u))
				g.ev = append(g.ev, v)
				g.eset[edgeKey(u, int(v))] = struct{}{}
			}
		}
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u,v}.  Self-loops and duplicate
// edges are ignored.  It reports whether an edge was actually added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v {
		return false
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graph.AddEdge: vertex out of range: %d,%d (n=%d)", u, v, g.n))
	}
	g.thaw()
	if g.eset == nil {
		g.eset = make(map[uint64]struct{})
	}
	key := edgeKey(u, v)
	if _, dup := g.eset[key]; dup {
		return false
	}
	g.eset[key] = struct{}{}
	g.eu = append(g.eu, int32(u))
	g.ev = append(g.ev, int32(v))
	g.m++
	g.csr = nil  // invalidate the finalized view
	g.vt = false // transitivity was proven for the unmutated construction
	return true
}

// HasEdge reports whether {u,v} is an edge.  Vertices outside [0, N) have
// no edges.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	if g.csr != nil {
		return g.csr.HasArc(u, v)
	}
	_, ok := g.eset[edgeKey(u, v)]
	return ok
}

// row returns u's sorted neighbor slice as a zero-copy view into the CSR
// arena.
func (g *Graph) row(u int) []int32 { return g.ensure().Row(u) }

// Neighbors appends the sorted neighbors of u to buf[:0] and returns it
// (the topo.Topology contract).  Passing a buffer with cap >= Degree(u)
// makes the call allocation-free.
func (g *Graph) Neighbors(u int, buf []int32) []int32 {
	return append(buf[:0], g.row(u)...)
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return g.ensure().Degree(u) }

// NeighborsInto implements topo.Source (same contract as Neighbors).
func (g *Graph) NeighborsInto(u int, buf []int32) []int32 {
	return g.Neighbors(u, buf)
}

// DegreeBound implements topo.Source: the maximum degree.
func (g *Graph) DegreeBound() int { return g.ensure().DegreeBound() }

// CSR returns the finalized adjacency arena, finalizing pending edges
// first.  The result is owned by the graph and must not be modified.
func (g *Graph) CSR() *topo.CSR { return g.ensure() }

// MemoryFootprint returns the adjacency storage size in bytes (offsets
// plus arena), the quantity the representation benchmarks report.
func (g *Graph) MemoryFootprint() int64 { return g.ensure().ByteSize() }

// Edges calls f for every edge {u,v} with u < v.
func (g *Graph) Edges(f func(u, v int)) {
	c := g.ensure()
	for u := 0; u < g.n; u++ {
		for _, v := range c.Row(u) {
			if int(v) > u {
				f(u, int(v))
			}
		}
	}
}

// DegreeStats returns the minimum, maximum, and average vertex degree.
func (g *Graph) DegreeStats() (min, max int, avg float64) {
	if g.n == 0 {
		return 0, 0, 0
	}
	c := g.ensure()
	min = int(^uint(0) >> 1)
	total := 0
	for u := 0; u < g.n; u++ {
		d := c.Degree(u)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		total += d
	}
	return min, max, float64(total) / float64(g.n)
}

// IsRegular reports whether all vertices have the same degree, and that
// degree.
func (g *Graph) IsRegular() (bool, int) {
	min, max, _ := g.DegreeStats()
	return min == max, max
}

// BFS returns the distance from src to every vertex (-1 if unreachable).
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	g.ensure().BFSInto(src, dist, make([]int32, 0, g.n))
	return dist
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	ecc, _ := g.ensure().BFSInto(0, make([]int32, g.n), make([]int32, 0, g.n))
	return ecc >= 0
}

// Eccentricity returns the maximum finite distance from src, or -1 if some
// vertex is unreachable.
func (g *Graph) Eccentricity(src int) int {
	ecc, _ := g.ensure().BFSInto(src, make([]int32, g.n), make([]int32, 0, g.n))
	return int(ecc)
}

// Diameter computes the exact diameter by running BFS from every vertex.
// It returns -1 for disconnected graphs.  Cost is O(N*(N+M)).
func (g *Graph) Diameter() int {
	c := g.ensure()
	dist := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	diam := 0
	for u := 0; u < g.n; u++ {
		ecc, _ := c.BFSInto(u, dist, queue)
		if ecc < 0 {
			return -1
		}
		if int(ecc) > diam {
			diam = int(ecc)
		}
	}
	return diam
}

// AverageDistance returns the mean distance over all ordered vertex pairs
// including (u,u) pairs, matching the paper's convention ("the average of
// the distances between a node X and all the network nodes (including node
// X itself)").  It returns -1 for disconnected graphs.
func (g *Graph) AverageDistance() float64 {
	c := g.ensure()
	n := g.n
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var total int64
	for u := 0; u < n; u++ {
		ecc, sum := c.BFSInto(u, dist, queue)
		if ecc < 0 {
			return -1
		}
		total += sum
	}
	return float64(total) / float64(n) / float64(n)
}

// DiameterFromSample estimates the diameter as the max eccentricity over
// the given sample of source vertices.  For vertex-transitive graphs a
// single source suffices for an exact answer.
func (g *Graph) DiameterFromSample(srcs []int) int {
	diam := 0
	for _, u := range srcs {
		e := g.Eccentricity(u)
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// CartesianProduct returns the Cartesian product g x h: vertices are pairs
// (u,v) encoded as u*h.N()+v; (u,v)~(u',v') iff (u=u' and v~v') or
// (v=v' and u~u').
func CartesianProduct(g, h *Graph) *Graph {
	gc, hc := g.ensure(), h.ensure()
	nh := h.N()
	out := FromStream(g.N()*nh, func(edge func(u, v int)) {
		for u := 0; u < g.N(); u++ {
			for v := 0; v < nh; v++ {
				id := u*nh + v
				for _, w := range hc.Row(v) {
					edge(id, u*nh+int(w))
				}
				for _, w := range gc.Row(u) {
					edge(id, int(w)*nh+v)
				}
			}
		}
	})
	// The product of vertex-transitive graphs is vertex-transitive: the
	// automorphism groups act independently on the coordinates.
	if g.vt && h.vt {
		out.MarkVertexTransitive()
	}
	return out
}

// Power returns the p-th Cartesian power of g (the homogeneous product
// network HPN(p, g) of Efe & Fernandez).  Power(0) is a single vertex.
func Power(g *Graph, p int) *Graph {
	out := New(1)
	out.MarkVertexTransitive() // K1 is trivially vertex-transitive
	for i := 0; i < p; i++ {
		out = CartesianProduct(out, g)
	}
	return out
}

// Equal reports whether g and h have identical vertex sets and edge sets
// (labels matter; this is not isomorphism).
func Equal(g, h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	return topo.Equal(g.ensure(), h.ensure())
}
