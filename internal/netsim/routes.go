package netsim

//lint:file-ignore ctxflow route tables compile once per network, capped by serve's SimMaxNodes check and by the 16384-node table limit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxTableNodes bounds the all-pairs route tables: n*n int16 entries,
// 512 MiB at the limit.
const maxTableNodes = 1 << 14

// routeVisitor receives one alive destination's reverse BFS: dist[u] is
// u's distance to dst over alive links (-1 = unreachable, which includes
// every dead node).  Where dist[u] > 0, via[u] is the port on which the
// BFS discovered u: u's lowest alive port to the first node of the BFS
// order one hop closer to dst, so following via walks a shortest alive
// path.  via[dst] is -1 and via is stale where dist is -1.  The slices
// are reused for the next destination, so a visitor copies what it
// keeps.  A non-nil error aborts the compile.
type routeVisitor func(dst int, dist, via []int16) error

// compileRoutes is the one route-table compiler behind TableRouter,
// FaultAwareRouter and MultipathRouter.  It checks net's size (kind
// names the router in the error), allocates the n x n table, every
// entry -1, builds the reverse adjacency over net's alive links, and runs
// one reverse BFS per alive destination on a GOMAXPROCS worker pool.
// Each worker gets its own visitor from newVisitor, which fills the
// destination's column table[u*n+dst]; columns are disjoint, so workers
// never write the same entries.  The reverse arcs into each node are in
// (source, port) ascending order, so the BFS discovery order, and with it
// via, is the same for any worker count.  When visitors fail, the error
// of the lowest failing destination is returned, again independent of
// the worker count.
func compileRoutes(net *Network, kind string, newVisitor func(table []int16) routeVisitor) ([]int16, error) {
	n := net.N
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	if n > maxTableNodes {
		return nil, fmt.Errorf("netsim: %s limited to %d nodes, got %d", kind, maxTableNodes, n)
	}
	table := make([]int16, n*n)
	for i := range table {
		table[i] = -1
	}

	// Reverse adjacency over alive arcs, as flat arenas: the arcs into v
	// are (revSrc[i], revPort[i]) for i in [revOff[v], revOff[v+1]).
	// portDead also rejects arcs into dead nodes.
	aliveArc := func(u, p int, v int32) bool {
		return v >= 0 && int(v) != u && !net.nodeDead(u) && !net.portDead(u, p)
	}
	revOff := make([]uint32, n+1)
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if aliveArc(u, p, v) {
				revOff[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		revOff[v+1] += revOff[v]
	}
	revSrc := make([]int32, revOff[n])
	revPort := make([]int16, revOff[n])
	cursor := make([]uint32, n)
	copy(cursor, revOff[:n])
	for u := 0; u < n; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if aliveArc(u, p, v) {
				i := cursor[v]
				revSrc[i] = int32(u)
				revPort[i] = int16(p)
				cursor[v] = i + 1
			}
		}
	}

	var (
		next     int64 = -1
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		errDst   int
	)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visit := newVisitor(table)
			dist := make([]int16, n)
			via := make([]int16, n)
			queue := make([]int32, 0, n)
			for !failed.Load() {
				dst := int(atomic.AddInt64(&next, 1))
				if dst >= n {
					return
				}
				if net.nodeDead(dst) {
					continue // nothing can be delivered there: the column stays -1
				}
				for i := range dist {
					dist[i] = -1
				}
				dist[dst], via[dst] = 0, -1
				queue = append(queue[:0], int32(dst))
				for qi := 0; qi < len(queue); qi++ {
					v := queue[qi]
					dv := dist[v] + 1
					for i := revOff[v]; i < revOff[v+1]; i++ {
						if u := revSrc[i]; dist[u] < 0 {
							dist[u] = dv
							via[u] = revPort[i]
							queue = append(queue, u)
						}
					}
				}
				if err := visit(dst, dist, via); err != nil {
					errMu.Lock()
					if firstErr == nil || dst < errDst {
						firstErr, errDst = err, dst
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return table, nil
}
