package topo

//lint:file-ignore ctxflow BFS kernels are deliberately ctx-free: one call is a single bounded traversal, and callers (graph's batch drivers, serve, the fault census) poll ctx between calls, keeping cancellation latency to one call

// topo has four BFS traversal kernels, which the metric drivers, the
// fault census and the serving paths call instead of hand-rolling the
// loop:
//
//   - CSR.BFSInto (this file): tight scalar BFS over an unmasked CSR arena;
//   - CSR.MSBFSInto (msbfs.go): tight 64-source BFS over an unmasked
//     symmetric CSR arena;
//   - BFSMaskedSourceInto (sourcebfs.go): the general scalar kernel, over
//     any Source with optional vertex and arc masks;
//   - MSBFSMaskedSourceInto (sourcebfs.go): the general 64-source kernel,
//     with the same options.
//
// BFSSourceInto and MSBFSSourceInto are thin dispatchers: a *CSR goes to
// the tight kernel, any other Source to the general one with nil masks.
// The tight pair is kept apart on purpose: folding the arena fast path
// into the general loop measurably slows the unmasked sweeps that the
// metric tables run.  The general kernels report the reached count
// instead of encoding disconnection as ecc = -1; the dispatchers convert,
// so both paths share one contract.

// BFSInto runs BFS from src into the caller-owned buffers: dist (length
// c.N(), fully overwritten; -1 marks unreachable) and queue (scratch;
// cap >= c.N() makes the call allocation-free).  It returns the
// eccentricity of src and the sum of finite distances; ecc is -1 when some
// vertex is unreachable (the sum then covers the reached vertices only).
func (c *CSR) BFSInto(src int, dist []int32, queue []int32) (ecc int32, sum int64) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = queue[:0]
	//lint:ignore indextrunc src < c.N() <= MaxVertices (math.MaxInt32)
	queue = append(queue, int32(src))
	visited := 1
	arena, off := c.arena, c.off
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		if du > ecc {
			ecc = du
		}
		sum += int64(du)
		for _, v := range arena[off[u]:off[u+1]] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
				visited++
			}
		}
	}
	if visited != c.N() {
		return -1, sum
	}
	return ecc, sum
}

// BFSSourceInto runs a scalar BFS from src over any Source, with the
// BFSInto contract: dist (length s.N(), fully overwritten; -1 marks
// unreachable), queue is caller scratch, and ecc is -1 when some vertex
// is unreachable.  nbuf is neighbor scratch (cap >= s.DegreeBound()
// avoids reallocation); the possibly grown buffer is returned for reuse.
func BFSSourceInto(s Source, src int, dist, queue, nbuf []int32) (ecc int32, sum int64, _ []int32) {
	if c, ok := s.(*CSR); ok {
		ecc, sum = c.BFSInto(src, dist, queue)
		return ecc, sum, nbuf
	}
	ecc, sum, reached, nbuf := BFSMaskedSourceInto(s, src, nil, nil, dist, queue, nbuf)
	if int(reached) != s.N() {
		ecc = -1
	}
	return ecc, sum, nbuf
}
