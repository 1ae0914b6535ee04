package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"

	"ipg/internal/fault"
	"ipg/internal/netsim"
	"ipg/internal/serve"
	"ipg/internal/topo"
)

// The steps of ipgd's handlers, rebuilt from the layers' public
// functions.  The oracle runs them untraced to compute expected answers;
// the traced replay runs them with a span around each layer call.

// spanFunc runs fn as one call into the named stage.
type spanFunc func(stage string, fn func() error) error

func untraced(_ string, fn func() error) error { return fn() }

// args are a request's endpoint parameters beyond the family key, with
// ipgd's defaults.
type args struct {
	src, dst, multipath   int
	workload              string
	rate                  float64
	seed, warmup, measure int
	faults                *fault.Spec // nil without fault parameters
	routing               string      // aware | oblivious, with faults
}

// rawGet returns the first value of name in an unescaped raw query.
func rawGet(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == name {
			return v
		}
	}
	return ""
}

func rawInt(raw, name string, def int) (int, error) {
	if s := rawGet(raw, name); s != "" {
		return strconv.Atoi(s)
	}
	return def, nil
}

func decodeArgs(raw string) (args, error) {
	var a args
	var err error
	ints := []struct {
		name string
		def  int
		dst  *int
	}{
		{"src", 0, &a.src}, {"dst", 0, &a.dst}, {"multipath", 0, &a.multipath},
		{"seed", 1, &a.seed}, {"warmup", 150, &a.warmup}, {"measure", 300, &a.measure},
	}
	for _, f := range ints {
		if *f.dst, err = rawInt(raw, f.name, f.def); err != nil {
			return a, err
		}
	}
	if a.workload = rawGet(raw, "workload"); a.workload == "" {
		a.workload = "random"
	}
	a.rate = 0.2
	if s := rawGet(raw, "rate"); s != "" {
		if a.rate, err = strconv.ParseFloat(s, 64); err != nil {
			return a, err
		}
	}
	if rawGet(raw, "faults") == "" {
		return a, nil
	}
	count, err := rawInt(raw, "faults", 0)
	if err != nil {
		return a, err
	}
	mode, err := fault.ParseMode(rawGet(raw, "fmode"))
	if err != nil {
		return a, err
	}
	fseed, err := rawInt(raw, "fseed", 1)
	if err != nil {
		return a, err
	}
	a.faults = &fault.Spec{Mode: mode, Count: count, Seed: int64(fseed)}
	if a.routing = rawGet(raw, "frouting"); a.routing == "" {
		a.routing = "aware"
	}
	return a, nil
}

// buildResponse is /v1/build's answer for a cached artifact, build_ms
// left zero.
func buildResponse(a *serve.Artifact) serve.BuildResponse {
	resp := serve.BuildResponse{Network: a.Name, Key: a.Params.Key(), Nodes: a.N, Materialized: a.Materialized(),
		Representation: a.Rep(), Cached: true, SizeBytes: a.SizeBytes()}
	if a.Materialized() {
		links := a.U.M()
		resp.Links = &links
	}
	return resp
}

// simNetwork is /v1/simulate's network: the artifact's memoized
// simulated network at the default chip capacity, degraded by the
// request's faults and, for aware routing, given shortest alive-path
// tables.  The response carries the request's echo fields.
func simNetwork(a *serve.Artifact, arg args, span spanFunc) (*netsim.Network, serve.SimulateResponse, error) {
	resp := serve.SimulateResponse{Network: a.Name, Workload: arg.workload, Nodes: a.N}
	var net *netsim.Network
	if err := span("netsim.compile", func() (err error) {
		net, err = a.SimNetwork(8.0)
		return err
	}); err != nil || arg.faults == nil {
		return net, resp, err
	}
	var sum *netsim.FaultSummary
	if err := span("fault.sample", func() (err error) {
		net, sum, err = netsim.Degrade(net, *arg.faults)
		return err
	}); err != nil {
		return nil, resp, err
	}
	if arg.routing == "aware" {
		if err := span("netsim.compile", func() error {
			far, err := netsim.NewFaultAwareRouter(net)
			net.Router = far
			return err
		}); err != nil {
			return nil, resp, err
		}
	}
	resp.Faults = &serve.SimFaults{Mode: string(sum.Mode), Count: arg.faults.Count, Seed: arg.faults.Seed, Routing: arg.routing,
		DeadNodes: len(sum.DeadNodes), DeadLinks: len(sum.DeadLinks), DeadChips: len(sum.DeadChips)}
	return net, resp, nil
}

// transposePerm is the transpose permutation on an n-node baseline
// network (the workloads send transposes only to power-of-four sizes).
func transposePerm(n int) ([]int32, error) {
	logN := 0
	for 1<<logN < n {
		logN++
	}
	return netsim.Transpose(logN)
}

// multipathBlock is /v1/route's ?multipath=k block: the artifact's
// independent spanning trees toward dst and, with fault parameters, each
// path's survival of the sampled faults.
func multipathBlock(ctx context.Context, a *serve.Artifact, arg args, span spanFunc) (*serve.MultipathRoute, error) {
	mp := &serve.MultipathRoute{Requested: arg.multipath}
	if err := span("ist.build", func() error {
		k := arg.multipath
		if max := a.MaxTrees(); k > max {
			k = max
		}
		trees, err := a.ISTrees(ctx, arg.dst, k)
		if err != nil {
			return err
		}
		mp.K = trees.K
		var buf []int32
		for t := 0; t < trees.K; t++ {
			if buf, err = trees.PathTo(t, arg.src, buf[:0]); err != nil {
				return err
			}
			p := make([]int, len(buf))
			for i, v := range buf {
				p[i] = int(v)
			}
			mp.Paths = append(mp.Paths, serve.MultipathPath{Tree: t, Hops: len(p) - 1, Path: p})
		}
		mp.Disjoint = internallyDisjoint(mp.Paths, arg.src, arg.dst)
		return nil
	}); err != nil || arg.faults == nil {
		return mp, err
	}
	err := span("fault.sample", func() error {
		c := a.U.CSR()
		set, err := fault.New(c, *arg.faults, a.ClusterIDs())
		if err != nil {
			return err
		}
		delivered := false
		for t := range mp.Paths {
			alive := pathSurvives(c, set, mp.Paths[t].Path)
			mp.Paths[t].Alive = &alive
			delivered = delivered || alive
		}
		mp.Delivered = &delivered
		mp.Faults = &serve.SimFaults{Mode: string(arg.faults.Mode), Count: arg.faults.Count, Seed: arg.faults.Seed,
			DeadNodes: len(set.DeadVertices), DeadLinks: len(set.DeadEdges), DeadChips: len(set.DeadChips)}
		return nil
	})
	return mp, err
}

// pathSurvives reports whether no vertex of path failed and, for every
// hop, some parallel arc between its ends survives.
func pathSurvives(c *topo.CSR, set *fault.Set, path []int) bool {
	for i, v := range path {
		if set.VertexDead(v) {
			return false
		}
		if i+1 == len(path) {
			break
		}
		first, ok := c.RowStart(v), false
		for j, w := range c.Row(v) {
			if int(w) == path[i+1] && !topo.Bit(set.ADead, first+j) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// internallyDisjoint reports whether the paths share no vertex other than
// src and dst and no edge.
func internallyDisjoint(paths []serve.MultipathPath, src, dst int) bool {
	inner := map[int]bool{}
	edges := map[[2]int]bool{}
	for _, p := range paths {
		for i, v := range p.Path {
			if v != src && v != dst {
				if inner[v] {
					return false
				}
				inner[v] = true
			}
			if i+1 < len(p.Path) {
				e := [2]int{v, p.Path[i+1]}
				if e[0] > e[1] {
					e[0], e[1] = e[1], e[0]
				}
				if edges[e] {
					return false
				}
				edges[e] = true
			}
		}
	}
	return true
}

// degradedBlock samples the fault set over the artifact's arena and
// sweeps the surviving network: the block degraded /v1/metrics attaches.
func degradedBlock(ctx context.Context, a *serve.Artifact, spec fault.Spec, span spanFunc) (*serve.DegradedMetrics, error) {
	c := a.U.CSR()
	clusterOf := a.ClusterIDs()
	var set *fault.Set
	if err := span("fault.sample", func() (err error) {
		set, err = fault.New(c, spec, clusterOf)
		return err
	}); err != nil {
		return nil, err
	}
	var rep *fault.Report
	if err := span("fault.analyze", func() error {
		dv, err := fault.NewDegradedView(c, set)
		if err != nil {
			return err
		}
		rep, err = dv.WithClusters(clusterOf).Analyze(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	return &serve.DegradedMetrics{
		Mode: string(spec.Mode), Count: spec.Count, Seed: spec.Seed,
		Alive: rep.Alive, FailedNodes: rep.FailedVertices, FailedLinks: rep.FailedEdges, FailedChips: rep.FailedChips,
		Components: rep.Components, LargestComponent: rep.LargestComponent,
		Diameter: rep.Diameter, AvgDistance: rep.AvgDistance,
		GiantDiameter: rep.GiantDiameter, GiantAvgDistance: rep.GiantAvgDistance,
		ChipsTotal: rep.ChipsTotal, ChipsDead: rep.ChipsDead, ChipsReachable: rep.ChipsReachable,
	}, nil
}

// encodeDegraded is the degraded body: the memoized document re-decoded,
// with the block attached, re-encoded.
func encodeDegraded(base []byte, block *serve.DegradedMetrics, out *bytes.Buffer) error {
	var doc serve.MetricsDoc
	if err := json.Unmarshal(base, &doc); err != nil {
		return err
	}
	doc.Degraded = block
	return doc.WriteJSON(out)
}
