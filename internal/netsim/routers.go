package netsim

//lint:file-ignore ctxflow router table construction runs once per network, capped by serve's SimMaxNodes check and by the 16384-node table limit of compileRoutes

import (
	"fmt"

	"ipg/internal/ipg"
	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// HypercubeRouter routes dimension-order on a hypercube whose port b flips
// address bit b (lowest differing bit first, so on-chip dimensions are
// corrected before off-chip ones when chips are low-order subcubes).  The
// arithmetic lives in topo.HypercubeNextDim, shared with the graph-level
// helpers in internal/topology.
type HypercubeRouter struct{ D int }

// NextPort implements Router.
func (r HypercubeRouter) NextPort(cur, dst int) int {
	return topo.HypercubeNextDim(cur, dst)
}

// TorusRouter routes dimension-order with minimal wrap on a k-ary n-cube
// whose ports are (2d) = +1 in dimension d, (2d+1) = -1 in dimension d.
// The arithmetic lives in topo.TorusNextHop, shared with the graph-level
// helpers in internal/topology.
type TorusRouter struct{ K, Dims int }

// NextPort implements Router.
func (r TorusRouter) NextPort(cur, dst int) int {
	dim, dir := topo.TorusNextHop(r.K, r.Dims, cur, dst)
	if dim < 0 {
		return -1
	}
	if dir > 0 {
		return 2 * dim
	}
	return 2*dim + 1
}

// HSNRouter routes hierarchically on an HSN (or HCN/RCC skeleton): fix the
// highest differing group i >= 2 by steering the front group to the
// destination's group-i content with nucleus hops and then swapping with
// T_i; finish by steering the front group to the destination's group-1
// content.  Intercluster hops equal the number of differing groups beyond
// the first — the optimum that Theorem 4.1's routing achieves.
type HSNRouter struct {
	w *superipg.Network
	// groupAddr[v*l+i] is the nucleus address of group i of node v.
	groupAddr []uint16
	l         int
	// nextGen[a*M+b] is the nucleus generator moving a nucleus node with
	// address a one hop toward address b.
	nextGen []int16
	m       int
}

// NewHSNRouter precomputes label digests and the nucleus routing table.
func NewHSNRouter(w *superipg.Network, g *ipg.Graph) (*HSNRouter, error) {
	if w.Family != "HSN" && w.Family != "HCN" && w.Family != "RCC" {
		return nil, fmt.Errorf("netsim: HSNRouter supports swap families, not %s", w.Family)
	}
	if w.Nuc.M > 1<<16 {
		return nil, fmt.Errorf("netsim: nucleus too large for HSNRouter")
	}
	if err := checkNodeCount(g.N()); err != nil {
		return nil, err
	}
	r := &HSNRouter{w: w, l: w.L, m: w.SymbolLen()}
	r.groupAddr = make([]uint16, g.N()*w.L)
	for v := 0; v < g.N(); v++ {
		lbl := g.Label(v)
		for i := 0; i < w.L; i++ {
			a, err := w.Nuc.AddressOf(lbl.Group(r.m, i))
			if err != nil {
				return nil, err
			}
			r.groupAddr[v*w.L+i] = uint16(a)
		}
	}
	table, err := nucleusNextGen(w)
	if err != nil {
		return nil, err
	}
	r.nextGen = table
	return r, nil
}

// nucleusNextGen builds the all-pairs next-generator table of the nucleus
// by reverse BFS from every destination.
func nucleusNextGen(w *superipg.Network) ([]int16, error) {
	ng, err := w.Nuc.Build()
	if err != nil {
		return nil, err
	}
	M := ng.N()
	if err := checkNodeCount(M); err != nil {
		return nil, err
	}
	// Node ids of the nucleus graph ordered by address.
	idByAddr := make([]int32, M)
	addrByID := make([]int32, M)
	for v := 0; v < M; v++ {
		a, err := w.Nuc.AddressOf(ng.Label(v))
		if err != nil {
			return nil, err
		}
		idByAddr[a] = int32(v)
		addrByID[v] = int32(a)
	}
	table := make([]int16, M*M)
	for i := range table {
		table[i] = -1
	}
	dist := make([]int32, M)
	queue := make([]int32, 0, M)
	for dstAddr := 0; dstAddr < M; dstAddr++ {
		dst := idByAddr[dstAddr]
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = queue[:0]
		queue = append(queue, dst)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			// Predecessors: nodes u with u --gen--> v set their table entry.
			for gi := 0; gi < ng.NumGens(); gi++ {
				// Use inverse walk: for u such that gen(u) = v, iterate all
				// gens from v on the inverse graph.  The nucleus generator
				// sets in this package are inverse-closed, so neighbors of
				// v are exactly the nodes with an edge to v.
				u := int32(ng.Neighbor(int(v), gi))
				if u == v || dist[u] >= 0 {
					continue
				}
				// Find a generator carrying u to v.
				for gj := 0; gj < ng.NumGens(); gj++ {
					if int32(ng.Neighbor(int(u), gj)) == v {
						dist[u] = dist[v] + 1
						table[int(addrByID[u])*M+dstAddr] = int16(gj)
						queue = append(queue, u)
						break
					}
				}
			}
		}
		for u := 0; u < M; u++ {
			if dist[u] < 0 {
				return nil, fmt.Errorf("netsim: nucleus %s disconnected", w.Nuc.Name)
			}
		}
	}
	return table, nil
}

// NextPort implements Router.  Ports coincide with generator indices of the
// super-IPG.
func (r *HSNRouter) NextPort(cur, dst int) int {
	ca := r.groupAddr[cur*r.l:]
	da := r.groupAddr[dst*r.l:]
	M := r.w.Nuc.M
	for i := r.l - 1; i >= 1; i-- {
		if ca[i] == da[i] {
			continue
		}
		if ca[0] == da[i] {
			// Front holds the needed content: swap it into place via T_{i+1}.
			return r.w.NumNucGens() + (i - 1)
		}
		return int(r.nextGen[int(ca[0])*M+int(da[i])])
	}
	if ca[0] != da[0] {
		return int(r.nextGen[int(ca[0])*M+int(da[0])])
	}
	return -1
}

// TableRouter is a full all-pairs next-port table built by reverse BFS on
// an arbitrary port network; usable for any family at small N.
type TableRouter struct {
	n     int
	table []int16
}

// NewTableRouter builds the table (O(N^2) memory, O(N*E) time) with
// compileRoutes: table[u*n+dst] is the port on which the reverse BFS
// from dst discovered u.  The router is meant for healthy networks, so
// every node must reach every other.
func NewTableRouter(net *Network) (*TableRouter, error) {
	n := net.N
	table, err := compileRoutes(net, "TableRouter", func(table []int16) routeVisitor {
		return func(dst int, dist, via []int16) error {
			for u, p := range via {
				if dist[u] < 0 {
					return fmt.Errorf("netsim: network disconnected (node %d cannot reach %d)", u, dst)
				}
				table[u*n+dst] = p
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &TableRouter{n: n, table: table}, nil
}

// NextPort implements Router.
func (tr *TableRouter) NextPort(cur, dst int) int { return int(tr.table[cur*tr.n+dst]) }
