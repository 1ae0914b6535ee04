package netsim

//lint:file-ignore ctxflow multipath table builds run once per request on networks capped by serve's SimMaxNodes check and the 16384-node router limit

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"ipg/internal/ist"
)

// This file routes around failures with independent spanning trees.  A
// MultipathRouter is built from a per-destination k-IST family of the
// HEALTHY network (the port map always describes the intact machine;
// DeadNode/DeadPort are masks on top of it): for every pair it forwards
// along the lowest-indexed tree whose root path survives the fault
// masks, falling back to an alive shortest path only when every
// disjoint tree is severed.  Because the k root paths are pairwise
// internally node-disjoint and edge-disjoint, fewer than k faults can
// never sever them all — the paper's connectivity guarantee made into a
// forwarding table — and the fallback closes the gap to full alive
// reachability beyond the bound, so delivery is never below the
// fault-aware single-path router's.
//
// Forwarding loops cannot form: if tree i survives at u it survives at
// every vertex of u's tree-i root path (alive paths are suffix-closed),
// so the minimum surviving tree index never increases along a route and
// the depth within a tree strictly decreases; fallback hops strictly
// decrease alive distance and can only hand over to a tree once.

// TreeSource yields the k-IST family rooted at dst, built on the
// healthy topology.  It is called concurrently from the build workers
// and must be safe for parallel use.
type TreeSource func(dst int) (*ist.Trees, error)

// GenericTreeSource adapts net's healthy port map into an adjacency
// source and builds the generic k-IST family (k <= ist.GenericMaxTrees)
// per destination.  Works for any 2-connected network; the hypercube's
// richer k = d family comes from ist.BuildHypercube instead.
func GenericTreeSource(net *Network, k int) TreeSource {
	src := newPortAdjacency(net)
	return func(dst int) (*ist.Trees, error) {
		return ist.Build(context.Background(), src, dst, k)
	}
}

// portAdjacency presents a Network's healthy port map as a topo.Source:
// neighbor rows are sorted ascending and deduplicated (parallel ports
// collapse), self-loop ports are skipped.  Read-only and therefore safe
// for the concurrent access topo.Source requires.
type portAdjacency struct {
	net *Network
	deg int
}

func newPortAdjacency(net *Network) portAdjacency {
	deg := 0
	for u := 0; u < net.N; u++ {
		if a := net.Ports.Arity(u); a > deg {
			deg = a
		}
	}
	return portAdjacency{net: net, deg: deg}
}

func (a portAdjacency) N() int           { return a.net.N }
func (a portAdjacency) DegreeBound() int { return a.deg }

func (a portAdjacency) NeighborsInto(v int, buf []int32) []int32 {
	buf = buf[:0]
	for _, w := range a.net.Ports.PortRow(v) {
		if w >= 0 && int(w) != v {
			buf = append(buf, w)
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	out := buf[:0]
	var prev int32 = -1
	for _, w := range buf {
		if w != prev {
			out = append(out, w)
			prev = w
		}
	}
	return out
}

// MultipathRouter implements Router over a precomputed n x n port
// table; NextPort is a single load.  The build statistics report how
// each alive pair was resolved.
type MultipathRouter struct {
	net  *Network
	n    int
	port []int16 // port[u*n+dst]; -1 = drop (unreachable)

	// TreePairs counts (src, dst) pairs forwarded by a surviving
	// independent tree, FallbackPairs those rescued by the alive
	// shortest-path fallback, UnreachablePairs those no router could
	// serve.  Dead endpoints are excluded from all three.
	TreePairs        atomic.Int64
	FallbackPairs    atomic.Int64
	UnreachablePairs atomic.Int64
}

// NewMultipathRouter builds the forwarding table with compileRoutes
// (O(N^2) memory like the other table routers).  treeFor is consulted
// once per alive destination; its trees must be rooted on the healthy
// topology at that destination.
func NewMultipathRouter(net *Network, treeFor TreeSource) (*MultipathRouter, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	n := net.N
	r := &MultipathRouter{net: net, n: n}
	port, err := compileRoutes(net, "MultipathRouter", func(port []int16) routeVisitor {
		var state []int8 // per (tree, vertex): 0 unknown, 1 alive, 2 dead
		var walk []int32 // upward-walk stack for memoization
		return func(dst int, dist, _ []int16) error {
			trees, err := treeFor(dst)
			if err != nil {
				return fmt.Errorf("netsim: multipath trees for destination %d: %w", dst, err)
			}
			if trees.N != n || trees.Root != dst {
				return fmt.Errorf("netsim: tree source returned (N=%d root=%d) for destination %d of %d nodes", trees.N, trees.Root, dst, n)
			}
			k := trees.K
			if cap(state) < k*n {
				state = make([]int8, k*n)
			}
			state = state[:k*n]
			for i := range state {
				state[i] = 0
			}
			var tp, fp, up int64
			for u := 0; u < n; u++ {
				if u == dst || net.nodeDead(u) {
					continue
				}
				assigned := false
				for t := 0; t < k; t++ {
					if walk = treeAlive(net, trees, state, t, u, walk); state[t*n+u] == 1 {
						port[u*n+dst] = alivePortTo(net, u, trees.Parent(t, u))
						tp++
						assigned = true
						break
					}
				}
				if assigned {
					continue
				}
				// Fallback tier: the alive shortest-path distances the
				// compiler handed over.
				if dist[u] > 0 {
					port[u*n+dst] = fallbackPort(net, dist, u)
					fp++
					continue
				}
				up++
			}
			r.TreePairs.Add(tp)
			r.FallbackPairs.Add(fp)
			r.UnreachablePairs.Add(up)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	r.port = port
	return r, nil
}

// treeAlive resolves (memoized) whether vertex v's tree-t root path
// survives the fault masks: every vertex on it alive and every hop
// having at least one alive port.  It walks up until a vertex with
// known state (or the root), then unwinds, so each vertex is resolved
// once per tree per destination.
func treeAlive(net *Network, trees *ist.Trees, state []int8, t, v int, walk []int32) []int32 {
	n := trees.N
	row := state[t*n : (t+1)*n]
	walk = walk[:0]
	cur := v
	verdict := int8(0)
	for {
		if row[cur] != 0 {
			verdict = row[cur]
			break
		}
		if net.nodeDead(cur) {
			verdict = 2
			row[cur] = 2
			break
		}
		if cur == trees.Root {
			verdict = 1
			row[cur] = 1
			break
		}
		p := trees.Parent(t, cur)
		if p < 0 || alivePortTo(net, cur, p) < 0 {
			verdict = 2
			row[cur] = 2
			break
		}
		//lint:ignore indextrunc cur < trees.N <= 16384
		walk = append(walk, int32(cur))
		cur = p
	}
	for _, x := range walk {
		row[x] = verdict
	}
	return walk
}

// alivePortTo returns the lowest alive port of u whose endpoint is w,
// or -1 if the link is fully dead.
func alivePortTo(net *Network, u, w int) int16 {
	for p, v := range net.Ports.PortRow(u) {
		if int(v) == w && !net.portDead(u, p) {
			//lint:ignore indextrunc ports per node are bounded by PortMap arity, far below MaxInt16
			return int16(p)
		}
	}
	return -1
}

// fallbackPort returns the lowest alive port of u stepping onto an
// alive shortest path toward the destination dist was computed for.
func fallbackPort(net *Network, dist []int16, u int) int16 {
	d := dist[u]
	for p, v := range net.Ports.PortRow(u) {
		if v >= 0 && !net.portDead(u, p) && dist[v] == d-1 {
			//lint:ignore indextrunc ports per node are bounded by PortMap arity, far below MaxInt16
			return int16(p)
		}
	}
	return -1
}

// NextPort implements Router: a table lookup, -1 = drop.
func (r *MultipathRouter) NextPort(cur, dst int) int { return int(r.port[cur*r.n+dst]) }
