package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"

	"ipg/internal/netsim"
	"ipg/internal/serve"
	"ipg/internal/topo"
)

// Oracle holds the expected answer to every request of a plan, computed
// in-process from the same library functions ipgd calls, before the
// child starts.  Check is safe for concurrent use: everything it reads
// is written during NewOracle only.
type Oracle struct {
	arts []*serve.Artifact // per key; nil where no check needs the artifact
	dist []*hopTable       // per key, all-pairs hop distances (route keys)

	mu     sync.Mutex                        // guards the maps while NewOracle fills them
	bodies map[string][]byte                 // byte-exact bodies: metrics, degraded metrics
	sims   map[string]serve.SimulateResponse // simulate counters
	multi  map[string]*serve.MultipathRoute  // multipath blocks
	builds map[int]serve.BuildResponse       // per key, build_ms zeroed

	// passed maps a path to a body that already passed the full check: a
	// byte-identical answer needs no second decode, which keeps the
	// client's share of the CPU small.
	passed sync.Map
}

var healthzBody = []byte("{\"status\":\"ok\"}\n")

// serveMaxNodes is ipgd's default -max-nodes; the oracle builds with the
// same cap so representations match.
const serveMaxNodes = 1 << 16

// buildKey builds one key the way ipgd does: raw-query decode, the
// provided-parameter check, and the default representation policy.
func buildKey(ctx context.Context, query string) (*serve.Artifact, error) {
	p, prov, err := serve.ParamsFromRawQuery(query)
	if err != nil {
		return nil, err
	}
	if err := p.CheckProvided(prov); err != nil {
		return nil, err
	}
	return serve.BuildArtifactThreshold(ctx, p, serveMaxNodes, 0)
}

// NewOracle precomputes the expectations of every distinct request in
// the plan.
func NewOracle(ctx context.Context, plan *Plan) (*Oracle, error) {
	o := &Oracle{
		arts:   make([]*serve.Artifact, len(plan.Keys)),
		dist:   make([]*hopTable, len(plan.Keys)),
		bodies: map[string][]byte{},
		sims:   map[string]serve.SimulateResponse{},
		multi:  map[string]*serve.MultipathRoute{},
		builds: map[int]serve.BuildResponse{},
	}
	for k, key := range plan.Keys {
		a, err := buildKey(ctx, key.Query)
		if err != nil {
			return nil, fmt.Errorf("oracle: building %s: %w", key.Query, err)
		}
		if a.N != key.Nodes {
			return nil, fmt.Errorf("oracle: %s has %d nodes, the workload table says %d", key.Query, a.N, key.Nodes)
		}
		o.arts[k] = a
	}
	// Distinct requests, computed on every CPU: the artifacts' memos are
	// goroutine-safe, and the distance matrices are filled first.
	var todo []Request
	seen := map[string]bool{}
	for _, list := range [][]Request{plan.Prime, plan.Requests} {
		for _, req := range list {
			if seen[req.Path] {
				continue
			}
			seen[req.Path] = true
			todo = append(todo, req)
			if req.Class == "route" || req.Class == "multipath" {
				if err := o.allPairs(req.Key); err != nil {
					return nil, err
				}
			}
		}
	}
	var (
		wg    sync.WaitGroup
		next  = make(chan Request)
		errMu sync.Mutex
		first error
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range next {
				if err := o.expect(ctx, req); err != nil {
					errMu.Lock()
					if first == nil {
						first = fmt.Errorf("oracle: %s: %w", req.Path, err)
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, req := range todo {
		next <- req
	}
	close(next)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	// Only route checks read the graph at check time; drop the rest so
	// the client holds little more than the expected answers.
	for k := range o.arts {
		if o.dist[k] == nil {
			o.arts[k] = nil
		}
	}
	return o, nil
}

// expect computes one distinct request's expectation and stores it.
func (o *Oracle) expect(ctx context.Context, req Request) error {
	if req.Class == "healthz" || req.Class == "route" {
		return nil // fixed body; distance matrix
	}
	a := o.arts[req.Key]
	_, raw, _ := strings.Cut(req.Path, "?")
	arg, err := decodeArgs(raw)
	if err != nil {
		return err
	}
	var store func()
	switch req.Class {
	case "metrics":
		body, err := a.MetricsJSON(ctx, false)
		if err != nil {
			return err
		}
		store = func() { o.bodies[req.Path] = body }
	case "build":
		resp := buildResponse(a)
		store = func() { o.builds[req.Key] = resp }
	case "multipath":
		mp, err := multipathBlock(ctx, a, arg, untraced)
		if err != nil {
			return err
		}
		store = func() { o.multi[req.Path] = mp }
	case "simulate", "fsimulate":
		resp, err := expectSimulate(ctx, a, arg)
		if err != nil {
			return err
		}
		store = func() { o.sims[req.Path] = resp }
	case "fmetrics":
		base, err := a.MetricsJSON(ctx, false)
		if err != nil {
			return err
		}
		block, err := degradedBlock(ctx, a, *arg.faults, untraced)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := encodeDegraded(base, block, &buf); err != nil {
			return err
		}
		store = func() { o.bodies[req.Path] = buf.Bytes() }
	default:
		return fmt.Errorf("unknown class %q", req.Class)
	}
	o.mu.Lock()
	store()
	o.mu.Unlock()
	return nil
}

// hopTable is an all-pairs hop-distance matrix, row-major.
type hopTable struct {
	n int
	d []int32
}

func (h *hopTable) hops(src, dst int) int { return int(h.d[src*h.n+dst]) }

// allPairs fills the hop-distance matrix of key k once.
func (o *Oracle) allPairs(k int) error {
	if o.dist[k] != nil {
		return nil
	}
	a := o.arts[k]
	if !a.Materialized() {
		return fmt.Errorf("route key %s is not materialized", a.Name)
	}
	c := a.U.CSR()
	n := c.N()
	d := make([]int32, n*n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		c.BFSInto(s, d[s*n:(s+1)*n], queue)
	}
	o.dist[k] = &hopTable{n: n, d: d}
	return nil
}

// expectSimulate runs the request's simulation in-process with the
// runner ipgd calls.
func expectSimulate(ctx context.Context, a *serve.Artifact, arg args) (serve.SimulateResponse, error) {
	net, resp, err := simNetwork(a, arg, untraced)
	if err != nil {
		return resp, err
	}
	switch arg.workload {
	case "random":
		res, err := netsim.RunRandomUniformCtx(ctx, net, int64(arg.seed), arg.rate, arg.warmup, arg.measure)
		if err != nil {
			return resp, err
		}
		randomResponse(&resp, res)
	case "transpose":
		perm, err := transposePerm(a.N)
		if err != nil {
			return resp, err
		}
		res, err := netsim.RunPermutationCtx(ctx, net, int64(arg.seed), perm, maxDrainRounds)
		if err != nil {
			return resp, err
		}
		resp.Rounds, resp.Latency = res.Rounds, res.Stats.AvgLatency()
		fillStats(&resp, res.Stats)
	default:
		return resp, fmt.Errorf("workload %q is not generated", arg.workload)
	}
	return resp, nil
}

// maxDrainRounds is ipgd's cap on a permutation's drain.
const maxDrainRounds = 1 << 20

// randomResponse fills a random simulation's answer from its result.
func randomResponse(resp *serve.SimulateResponse, res netsim.RandomResult) {
	resp.Rounds, resp.Latency, resp.Accepted = res.Stats.Rounds, res.Latency, res.Accepted
	resp.Saturated = &res.Saturated
	fillStats(resp, res.Stats)
}

// fillStats copies the packet counters every simulate response carries.
func fillStats(resp *serve.SimulateResponse, st netsim.Stats) {
	resp.Injected, resp.Delivered, resp.Dropped, resp.Retried = st.Injected, st.Delivered, st.Dropped, st.Retried
	resp.OffChip = st.OffChipPerPacket()
}

func (o *Oracle) Check(req Request, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d", status)
	}
	if prev, ok := o.passed.Load(req.Path); ok && bytes.Equal(prev.([]byte), body) {
		return nil
	}
	if err := o.check(req, body); err != nil {
		return err
	}
	o.passed.Store(req.Path, body)
	return nil
}

func (o *Oracle) check(req Request, body []byte) error {
	switch req.Class {
	case "healthz":
		if !bytes.Equal(body, healthzBody) {
			return fmt.Errorf("healthz body %q", body)
		}
	case "metrics", "fmetrics":
		if want := o.bodies[req.Path]; !bytes.Equal(body, want) {
			return fmt.Errorf("body differs from the in-process document (%d vs %d bytes)", len(body), len(want))
		}
	case "build":
		var got serve.BuildResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		got.BuildMillis = 0
		if want := o.builds[req.Key]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("build response %+v, want %+v", got, want)
		}
	case "simulate", "fsimulate":
		var got serve.SimulateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if want := o.sims[req.Path]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("simulation %+v, want %+v", got, want)
		}
	case "route", "multipath":
		var got serve.RouteResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if err := o.checkRoute(req, &got); err != nil {
			return err
		}
		if want := o.multi[req.Path]; !reflect.DeepEqual(got.Multipath, want) {
			return fmt.Errorf("multipath block differs from the in-process trees")
		}
	default:
		return fmt.Errorf("unknown class %q", req.Class)
	}
	return nil
}

// checkRoute verifies the shortest-path part of a route response: the
// hop count is the BFS distance and the path walks real edges from src to
// dst, with matching labels on super-IPG families.
func (o *Oracle) checkRoute(req Request, got *serve.RouteResponse) error {
	a := o.arts[req.Key]
	c := a.U.CSR()
	n := c.N()
	if got.Network != a.Name || got.Src < 0 || got.Src >= n || got.Dst < 0 || got.Dst >= n {
		return fmt.Errorf("route header %q %d->%d", got.Network, got.Src, got.Dst)
	}
	if want := o.dist[req.Key].hops(got.Src, got.Dst); got.Hops != want {
		return fmt.Errorf("route %d->%d has %d hops, BFS distance is %d", got.Src, got.Dst, got.Hops, want)
	}
	if len(got.Path) != got.Hops+1 || got.Path[0] != got.Src || got.Path[got.Hops] != got.Dst {
		return fmt.Errorf("route path %v does not run %d->%d in %d hops", got.Path, got.Src, got.Dst, got.Hops)
	}
	for i := 0; i < got.Hops; i++ {
		if !adjacent(c, got.Path[i], got.Path[i+1]) {
			return fmt.Errorf("route hop %d->%d is not an edge", got.Path[i], got.Path[i+1])
		}
	}
	if !a.Super() {
		if got.Labels != nil {
			return fmt.Errorf("labels on a baseline family")
		}
		return nil
	}
	if len(got.Labels) != len(got.Path) {
		return fmt.Errorf("%d labels for %d path nodes", len(got.Labels), len(got.Path))
	}
	for i, v := range got.Path {
		if want := a.G.Label(v).GroupedString(a.W.SymbolLen()); got.Labels[i] != want {
			return fmt.Errorf("label of node %d is %q, want %q", v, got.Labels[i], want)
		}
	}
	return nil
}

func adjacent(c *topo.CSR, u, v int) bool {
	if u < 0 || u >= c.N() {
		return false
	}
	for _, w := range c.Row(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}
