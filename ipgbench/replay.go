package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ipg/internal/cache"
	"ipg/internal/netsim"
	"ipg/internal/serve"
	"ipg/internal/topo"
)

// The traced replay sends a plan's requests through the layers' public
// functions in-process, in the order ipgd's handlers call them, with a
// span around each call.  The stage names are the ledger vocabulary the
// per-layer metrics report:
var stageNames = []string{
	"serve.decode", "cache.lookup", "serve.build", "serve.metrics",
	"topo.route",
	"fault.sample", "fault.analyze",
	"netsim.compile", "netsim.sim_setup", "netsim.sim_rounds",
	"ist.build",
	"serve.encode",
}

// Departures from the daemon: no HTTP, worker slots, breaker or request
// deadline.  A random simulation runs the daemon's own runner,
// netsim.RunRandomUniformCtx, so its rounds pay the simulator's draws;
// the runner's netsim.New is timed once more on its own beforehand as
// netsim.sim_setup, and that much of the runner's span is recorded as a
// repeat (Tracer.Repeat), outside every stage and the traced wall time.
// Every replayed response is checked against the oracle, so the replay
// cannot drift from what the daemon answers.

type replayer struct {
	ctx   context.Context
	tr    *Tracer
	cache *cache.Cache
	key   []byte
	out   bytes.Buffer
	enc   *json.Encoder
}

func newReplayer(ctx context.Context, plan *Plan) *replayer {
	rp := &replayer{
		ctx:   ctx,
		tr:    NewTracer(),
		cache: cache.New(cache.Config{MaxBytes: int64(plan.CacheMB) << 20, Shards: plan.Shards}),
	}
	rp.enc = json.NewEncoder(&rp.out)
	return rp
}

// Replay runs the plan's priming requests and then up to plan.Traced
// requests of its sequence, stopping early after limit, and checks each
// response against the oracle.  It returns the trace and its wall time
// (ReplayWall).
func Replay(ctx context.Context, plan *Plan, oracle *Oracle, limit time.Duration) (*Tracer, time.Duration, error) {
	rp := newReplayer(ctx, plan)
	replay := func(req Request) error {
		root := rp.tr.BeginRequest("request")
		err := rp.do(req)
		rp.tr.End(root)
		if err == nil {
			// The body buffer is reused; the oracle keeps bodies it passed.
			err = oracle.Check(req, 200, bytes.Clone(rp.out.Bytes()))
		}
		if err != nil {
			return fmt.Errorf("replaying %s: %w", req.Path, err)
		}
		return nil
	}
	for _, req := range plan.Prime {
		if err := replay(req); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < plan.Traced && time.Since(rp.tr.t0) < limit; i++ {
		if err := replay(plan.Requests[i%len(plan.Requests)]); err != nil {
			return nil, 0, err
		}
	}
	return rp.tr, ReplayWall(rp.tr.Spans()), nil
}

// do replays one request, leaving its response body in rp.out.
func (rp *replayer) do(req Request) error {
	tr := rp.tr
	if req.Class == "healthz" {
		return rp.write(healthzBody)
	}
	_, raw, _ := strings.Cut(req.Path, "?")
	var (
		p   serve.Params
		arg args
	)
	err := tr.Span("serve.decode", func() error {
		var prov serve.Provided
		var err error
		if p, prov, err = serve.ParamsFromRawQuery(raw); err != nil {
			return err
		}
		if err = p.CheckProvided(prov); err != nil {
			return err
		}
		arg, err = decodeArgs(raw)
		return err
	})
	if err != nil {
		return err
	}
	a, err := rp.artifact(p)
	if err != nil {
		return err
	}
	switch req.Class {
	case "metrics":
		var body []byte
		if err := tr.Span("serve.metrics", func() (err error) {
			body, err = a.MetricsJSON(rp.ctx, false)
			return err
		}); err != nil {
			return err
		}
		return rp.write(body)
	case "build":
		resp := buildResponse(a)
		return rp.encode(&resp)
	case "route", "multipath":
		return rp.route(a, arg)
	case "simulate", "fsimulate":
		return rp.simulate(a, arg)
	case "fmetrics":
		return rp.degraded(a, arg)
	}
	return fmt.Errorf("unknown class %q", req.Class)
}

// artifact is ipgd's getArtifact: a cache probe, and a singleflight build
// on miss.
func (rp *replayer) artifact(p serve.Params) (*serve.Artifact, error) {
	id := rp.tr.Begin("cache.lookup")
	defer rp.tr.End(id)
	rp.key = p.AppendKey(rp.key[:0])
	if v, ok := rp.cache.Lookup(rp.key); ok {
		return v.(*serve.Artifact), nil
	}
	v, _, err := rp.cache.GetOrBuild(rp.ctx, string(rp.key), func(bctx context.Context) (cache.Value, error) {
		b := rp.tr.Begin("serve.build")
		defer rp.tr.End(b)
		return serve.BuildArtifactThreshold(bctx, p, serveMaxNodes, 0)
	})
	if err != nil {
		return nil, err
	}
	return v.(*serve.Artifact), nil
}

// write is serve.encode for a body that is already encoded.
func (rp *replayer) write(body []byte) error {
	id := rp.tr.Begin("serve.encode")
	rp.out.Reset()
	rp.out.Write(body)
	rp.tr.EndWork(id, int64(rp.out.Len()))
	return nil
}

func (rp *replayer) encode(v any) error {
	id := rp.tr.Begin("serve.encode")
	rp.out.Reset()
	err := rp.enc.Encode(v)
	rp.tr.EndWork(id, int64(rp.out.Len()))
	return err
}

func (rp *replayer) route(a *serve.Artifact, arg args) error {
	tr := rp.tr
	var path []int
	if err := tr.Span("topo.route", func() (err error) {
		path, err = shortestPath(a.Source(), arg.src, arg.dst)
		return err
	}); err != nil {
		return err
	}
	resp := serve.RouteResponse{Network: a.Name, Src: arg.src, Dst: arg.dst, Hops: len(path) - 1, Path: path}
	if arg.multipath > 0 {
		mp, err := multipathBlock(rp.ctx, a, arg, tr.Span)
		if err != nil {
			return err
		}
		resp.Multipath = mp
	}
	id := tr.Begin("serve.encode")
	if a.Super() {
		resp.Labels = make([]string, len(path))
		for i, v := range path {
			resp.Labels[i] = a.G.Label(v).GroupedString(a.W.SymbolLen())
		}
	}
	rp.out.Reset()
	err := rp.enc.Encode(&resp)
	tr.EndWork(id, int64(rp.out.Len()))
	return err
}

// shortestPath is /v1/route's reconstruction: one pooled BFS from src,
// then a walk back from dst along strictly decreasing distances.
func shortestPath(source topo.Source, src, dst int) ([]int, error) {
	s := topo.GetScratch(source.N())
	defer topo.PutScratch(s)
	nbuf := s.NeighborBuf(source.DegreeBound())
	_, _, nbuf = topo.BFSSourceInto(source, src, s.Dist, s.Queue, nbuf)
	dist := s.Dist
	if dist[dst] < 0 {
		return nil, fmt.Errorf("no path from %d to %d", src, dst)
	}
	path := make([]int, dist[dst]+1)
	path[len(path)-1] = dst
	cur := dst
	for d := int(dist[dst]); d > 0; d-- {
		nbuf = source.NeighborsInto(cur, nbuf)
		found := false
		for _, nb := range nbuf {
			if int(dist[nb]) == d-1 {
				cur = int(nb)
				path[d-1] = cur
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("BFS distances inconsistent at node %d", cur)
		}
	}
	s.Nbuf = nbuf
	return path, nil
}

// simulate is /v1/simulate with the simulator split into set-up
// (netsim.New and the injected traffic) and rounds (every Step).
func (rp *replayer) simulate(a *serve.Artifact, arg args) error {
	tr := rp.tr
	net, resp, err := simNetwork(a, arg, tr.Span)
	if err != nil {
		return err
	}
	switch arg.workload {
	case "random":
		setup := tr.Begin("netsim.sim_setup")
		_, err := netsim.New(net, int64(arg.seed))
		tr.End(setup)
		if err != nil {
			return err
		}
		id := tr.Begin("netsim.sim_rounds")
		res, err := netsim.RunRandomUniformCtx(rp.ctx, net, int64(arg.seed), arg.rate, arg.warmup, arg.measure)
		tr.Repeat(tr.Duration(setup))
		tr.EndWork(id, int64(net.N)*int64(arg.warmup+arg.measure))
		if err != nil {
			return err
		}
		randomResponse(&resp, res)
	case "transpose":
		var (
			s     *netsim.Sim
			total int64
		)
		if err := tr.Span("netsim.sim_setup", func() (err error) {
			if s, err = netsim.New(net, int64(arg.seed)); err != nil {
				return err
			}
			perm, err := transposePerm(net.N)
			if err != nil {
				return err
			}
			for u, d := range perm {
				if int(d) != u {
					if err := s.Enqueue(u, d); err != nil {
						return err
					}
					total++
				}
			}
			return nil
		}); err != nil {
			return err
		}
		// The drain loop of netsim.RunPermutationCtx.
		id := tr.Begin("netsim.sim_rounds")
		var st netsim.Stats
		rounds := 0
		for rounds < maxDrainRounds {
			if _, err := s.Step(); err != nil {
				return err
			}
			rounds++
			if st = s.Stats(); st.Delivered+st.Dropped >= total {
				break
			}
		}
		tr.EndWork(id, int64(net.N)*int64(rounds))
		resp.Rounds, resp.Latency = rounds, st.AvgLatency()
		fillStats(&resp, st)
	default:
		return fmt.Errorf("workload %q is not replayed", arg.workload)
	}
	return rp.encode(&resp)
}

// degraded is /v1/metrics with fault parameters.
func (rp *replayer) degraded(a *serve.Artifact, arg args) error {
	tr := rp.tr
	var base []byte
	if err := tr.Span("serve.metrics", func() (err error) {
		base, err = a.MetricsJSON(rp.ctx, false)
		return err
	}); err != nil {
		return err
	}
	block, err := degradedBlock(rp.ctx, a, *arg.faults, tr.Span)
	if err != nil {
		return err
	}
	id := tr.Begin("serve.encode")
	rp.out.Reset()
	err = encodeDegraded(base, block, &rp.out)
	tr.EndWork(id, int64(rp.out.Len()))
	return err
}
