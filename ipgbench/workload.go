package main

import "fmt"

// A workload is a fixed universe of ipgd keys plus a block of request
// templates.  Generate turns (workload, seed) into the priming requests
// and the measured request sequence; nothing else feeds the program.
//
// The sequence is stratified: every block holds exactly the workload's
// weighted template multiset, shuffled by the seed, and only per-request
// parameters (route endpoints, simulator and fault seeds) are drawn
// freely.  So the endpoint and key mix is identical for every seed and a
// run-to-run difference in the quantiles is the program's, not the mix's.

// Workload names.  BENCHMARK.json lists gatedWorkloads, in this order.
// warm is run by hand only: its sub-millisecond requests make it follow
// the shared host's speed about twice as closely as the others, so its
// run-to-run spread often exceeds the largest regression bound allowed (0.25).
var (
	gatedWorkloads = []string{"simulate", "faulted", "cold"}
	workloadNames  = append([]string{"warm"}, gatedWorkloads...)
)

// Key is one ipgd family instance.  Nodes is the instance's node count,
// needed to draw route endpoints without building anything; the oracle
// checks it against the in-process build.
type Key struct {
	Query string
	Nodes int
}

// Request is one HTTP request of a plan.
type Request struct {
	Class string // healthz|build|metrics|route|simulate|fmetrics|fsimulate|multipath
	Key   int    // index into Plan.Keys; -1 for healthz
	Path  string // path and raw query sent to ipgd
}

// Plan is everything a run sends to ipgd for one (workload, seed).
type Plan struct {
	Workload string
	Seed     int64
	Keys     []Key
	// Prime is sent once, sequentially, right after the child is
	// healthy; setup_s ends when the last one is answered.
	Prime []Request
	// Requests is the measured sequence; request i of a run is
	// Requests[i % len(Requests)].
	Requests []Request
	// CacheMB and Shards are the child's -cache-mb and -shards flags.
	CacheMB, Shards int
	// Traced is how many requests of the sequence the traced replay runs
	// (after replaying Prime).
	Traced int
}

// hotKeys are the 8 golden families ipgload and the cluster smoke test
// use as their hot set: every topology class the daemon serves, at 16-64
// nodes.
var hotKeys = []Key{
	{"net=hsn&l=2&nucleus=q2", 16},
	{"net=hsn&l=3&nucleus=q2", 64},
	{"net=ring-cn&l=3&nucleus=q2", 64},
	{"net=complete-cn&l=3&nucleus=q2", 64},
	{"net=sfn&l=3&nucleus=q2", 64},
	{"net=hypercube&dim=6&logm=2", 64},
	{"net=torus&k=8&side=2", 64},
	{"net=ccc&dim=4", 64},
}

// simKey is a simulate-workload key with its per-block template counts.
type simKey struct {
	Key
	short, long, transpose int
}

// simKeys span 16 to 1024 nodes and every router kind: arithmetic
// hypercube/torus, the HSN word router (hsn, hcn) and the all-pairs
// table router (ring-cn, complete-cn, sfn).  Short runs are mostly
// simulator set-up, long runs mostly rounds; the counts keep both near
// half of the simulator's time (see the traced shares) and put the long
// and large runs in the latency tail.  Short runs on the 16-64-node keys
// are two thirds of the mix, so the median latency falls inside their
// cluster instead of on its upper edge, where it would jump between runs.
var simKeys = []simKey{
	{Key{"net=hsn&l=2&nucleus=q2", 16}, 12, 2, 0},
	{Key{"net=hypercube&dim=6&logm=2", 64}, 12, 2, 1},
	{Key{"net=torus&k=8&side=2", 64}, 12, 2, 1},
	{Key{"net=ring-cn&l=3&nucleus=q2", 64}, 12, 2, 0},
	{Key{"net=complete-cn&l=3&nucleus=q2", 64}, 12, 2, 0},
	{Key{"net=hcn&nucleus=q3", 64}, 12, 2, 0},
	{Key{"net=hsn&l=4&nucleus=q2", 256}, 3, 1, 0},
	{Key{"net=sfn&l=4&nucleus=q2", 256}, 3, 1, 0},
	{Key{"net=torus&k=16&side=2", 256}, 3, 1, 1},
	{Key{"net=hypercube&dim=8&logm=2", 256}, 3, 1, 1},
	{Key{"net=ring-cn&l=5&nucleus=q2", 1024}, 1, 0, 0},
	{Key{"net=hypercube&dim=10&logm=3", 1024}, 1, 0, 0},
}

// Simulator run shapes.  Every simulate request draws its seed from
// 1..simSeeds, so the oracle's universe stays finite.
const (
	simRate      = "0.1"
	shortWarmup  = 5
	shortMeasure = 20
	longWarmup   = 40
	longMeasure  = 160
	simSeeds     = 4
	faultSeeds   = 4
)

// faultKey is a faulted-workload key with its per-block template
// counts: degraded metrics, fault-aware and oblivious simulations, and
// multipath routes.
type faultKey struct {
	Key
	fmetrics, aware, oblivious, multipath int
}

// faultKeys are materialized instances the faulted workload degrades per
// request.  The 1024-node keys carry the fault-aware route compile and
// the masked sweeps, whose cost grows with N squared, so those stages
// outweigh simulator set-up; ccc has no simulator and takes only
// degraded metrics and multipath routes.  Cheap requests (multipath
// routes, degraded metrics on small keys) stay under half the mix, so
// the median latency falls among the small simulations instead of on
// the gap below them, where it would jump between runs.
var faultKeys = []faultKey{
	{Key{"net=hypercube&dim=6&logm=2", 64}, 1, 2, 1, 1},
	{Key{"net=torus&k=8&side=2", 64}, 1, 2, 1, 1},
	{Key{"net=hsn&l=3&nucleus=q2", 64}, 1, 2, 1, 1},
	{Key{"net=ring-cn&l=3&nucleus=q2", 64}, 1, 2, 1, 1},
	{Key{"net=ccc&dim=5", 160}, 1, 0, 0, 1},
	{Key{"net=hypercube&dim=8&logm=2", 256}, 3, 2, 1, 1},
	{Key{"net=torus&k=16&side=2", 256}, 3, 2, 1, 1},
	{Key{"net=hsn&l=4&nucleus=q2", 256}, 3, 2, 1, 1},
	{Key{"net=hypercube&dim=10&logm=3", 1024}, 4, 1, 0, 1},
	{Key{"net=hsn&l=5&nucleus=q2", 1024}, 4, 1, 0, 1},
}

// multipathDsts is how many destinations per faulted key get their
// independent-spanning-tree families primed; the artifact memo holds 64.
const multipathDsts = 6

// coldKeys are 256-4096-node instances whose artifacts together exceed
// the cold child's 1 MiB cache several times over, so cycling through
// them in a fixed order misses on nearly every request.
var coldKeys = []Key{
	{"net=hypercube&dim=12&logm=2", 4096},
	{"net=hypercube&dim=12&logm=3", 4096},
	{"net=hypercube&dim=12&logm=4", 4096},
	{"net=hypercube&dim=11&logm=3", 2048},
	{"net=hypercube&dim=10&logm=2", 1024},
	{"net=torus&k=64&side=2", 4096},
	{"net=torus&k=64&side=4", 4096},
	{"net=torus&k=32&side=2", 1024},
	{"net=ccc&dim=8", 2048},
	{"net=ccc&dim=9", 4608},
	{"net=butterfly&dim=8&band=2", 2048},
	{"net=hsn&l=6&nucleus=q2", 4096},
	{"net=hsn&l=3&nucleus=q4", 4096},
	{"net=ring-cn&l=6&nucleus=q2", 4096},
	{"net=sfn&l=6&nucleus=q2", 4096},
	{"net=hcn&nucleus=q6", 4096},
	{"net=hsn&l=4&nucleus=q2", 256},
}

// rng is a splitmix64 stream: tiny, allocation-free, and fixed forever,
// so a seed names the same inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(reqs []Request) {
	for i := len(reqs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
}

// Generate is a pure function of (workload, seed).
func Generate(workload string, seed int64) (*Plan, error) {
	p := &Plan{Workload: workload, Seed: seed, CacheMB: 256, Shards: 16}
	switch workload {
	case "warm":
		genWarm(p)
	case "simulate":
		genSimulate(p)
	case "faulted":
		genFaulted(p)
	case "cold":
		genCold(p)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return p, nil
}

// blocks appends n shuffled blocks built by block to p.Requests.
func (p *Plan) blocks(n int, r *rng, block func(r *rng) []Request) {
	for b := 0; b < n; b++ {
		reqs := block(r)
		r.shuffle(reqs)
		p.Requests = append(p.Requests, reqs...)
	}
}

func metricsReq(k int, key Key) Request {
	return Request{Class: "metrics", Key: k, Path: "/v1/metrics?" + key.Query}
}

func routeReq(k int, key Key, src, dst int) Request {
	return Request{Class: "route", Key: k, Path: fmt.Sprintf("/v1/route?%s&src=%d&dst=%d", key.Query, src, dst)}
}

func simReq(k int, key Key, warmup, measure, seed int) Request {
	return Request{Class: "simulate", Key: k, Path: fmt.Sprintf("/v1/simulate?%s&workload=random&rate=%s&warmup=%d&measure=%d&seed=%d",
		key.Query, simRate, warmup, measure, seed)}
}

// genWarm: the cache-hit read path over the 8 hot keys, all primed.
func genWarm(p *Plan) {
	p.Keys = hotKeys
	for k, key := range p.Keys {
		p.Prime = append(p.Prime, metricsReq(k, key))
	}
	r := newRNG(p.Seed, 1)
	p.blocks(200, r, func(r *rng) []Request {
		var reqs []Request
		for k, key := range p.Keys {
			reqs = append(reqs,
				metricsReq(k, key), metricsReq(k, key),
				routeReq(k, key, r.intn(key.Nodes), r.intn(key.Nodes)),
				routeReq(k, key, r.intn(key.Nodes), r.intn(key.Nodes)),
				Request{Class: "build", Key: k, Path: "/v1/build?" + key.Query})
		}
		return append(reqs,
			Request{Class: "healthz", Key: -1, Path: "/healthz"},
			Request{Class: "healthz", Key: -1, Path: "/healthz"})
	})
	p.Traced = 20000
}

// genSimulate: /v1/simulate over primed keys, short and long random runs
// plus transpose permutations on the power-of-four arithmetic keys.
func genSimulate(p *Plan) {
	for _, sk := range simKeys {
		p.Keys = append(p.Keys, sk.Key)
	}
	for k, key := range p.Keys {
		// The first run on a key builds its simulated network, which for
		// CN families includes the all-pairs table router compile.
		p.Prime = append(p.Prime, simReq(k, key, shortWarmup, shortMeasure, 1))
	}
	r := newRNG(p.Seed, 2)
	p.blocks(60, r, func(r *rng) []Request {
		var reqs []Request
		for k, sk := range simKeys {
			for i := 0; i < sk.short; i++ {
				reqs = append(reqs, simReq(k, sk.Key, shortWarmup, shortMeasure, 1+r.intn(simSeeds)))
			}
			for i := 0; i < sk.long; i++ {
				reqs = append(reqs, simReq(k, sk.Key, longWarmup, longMeasure, 1+r.intn(simSeeds)))
			}
			for i := 0; i < sk.transpose; i++ {
				reqs = append(reqs, Request{Class: "simulate", Key: k, Path: fmt.Sprintf(
					"/v1/simulate?%s&workload=transpose&seed=%d", sk.Query, 1+r.intn(simSeeds))})
			}
		}
		return reqs
	})
	p.Traced = 700
}

// faultModes are the models the faulted workload samples; adversarial
// cuts have no simulator or multipath analogue.
var faultModes = []string{"node", "link", "chip"}

// multipathK is the tree count requested on a faulted key: the full
// dimension on hypercubes (closed form), else the generic 2-IST bound.
func multipathK(key Key) int {
	switch key.Query {
	case "net=hypercube&dim=6&logm=2":
		return 6
	case "net=hypercube&dim=8&logm=2":
		return 8
	case "net=hypercube&dim=10&logm=3":
		return 10
	}
	return 2
}

// multipathDstSet is the primed destination set of faulted key k: a
// seeded choice, so tree construction happens at set-up and the measured
// requests reuse the artifact's memoized trees.
func multipathDstSet(p *Plan, k int) []int {
	r := newRNG(p.Seed, 100+uint64(k))
	n := p.Keys[k].Nodes
	seen := map[int]bool{}
	var dsts []int
	for len(dsts) < multipathDsts {
		d := r.intn(n)
		if !seen[d] {
			seen[d] = true
			dsts = append(dsts, d)
		}
	}
	return dsts
}

func multipathReq(k int, key Key, src, dst int, mode string, fseed int) Request {
	return Request{Class: "multipath", Key: k, Path: fmt.Sprintf("/v1/route?%s&src=%d&dst=%d&multipath=%d&faults=2&fmode=%s&fseed=%d",
		key.Query, src, dst, multipathK(key), mode, fseed)}
}

func fsimReq(k int, key Key, mode string, seed int, routing string) Request {
	return Request{Class: "fsimulate", Key: k, Path: fmt.Sprintf(
		"/v1/simulate?%s&workload=random&rate=%s&warmup=%d&measure=%d&seed=%d&faults=3&fmode=%s&fseed=%d&frouting=%s",
		key.Query, simRate, shortWarmup, shortMeasure, seed, mode, seed, routing)}
}

// genFaulted: per-request fault work on fully built keys.  A faulted
// simulation uses its seed for both traffic and faults, which keeps the
// oracle's universe small.
func genFaulted(p *Plan) {
	for _, fk := range faultKeys {
		p.Keys = append(p.Keys, fk.Key)
	}
	dstSets := make([][]int, len(p.Keys))
	for k, fk := range faultKeys {
		key := fk.Key
		p.Prime = append(p.Prime, metricsReq(k, key))
		if fk.aware+fk.oblivious > 0 {
			p.Prime = append(p.Prime, simReq(k, key, shortWarmup, shortMeasure, 1))
		}
		dstSets[k] = multipathDstSet(p, k)
		for _, d := range dstSets[k] {
			p.Prime = append(p.Prime, multipathReq(k, key, (d+1)%key.Nodes, d, "node", 1))
		}
	}
	r := newRNG(p.Seed, 3)
	p.blocks(30, r, func(r *rng) []Request {
		var reqs []Request
		for k, fk := range faultKeys {
			for i := 0; i < fk.fmetrics; i++ {
				reqs = append(reqs, Request{Class: "fmetrics", Key: k, Path: fmt.Sprintf("/v1/metrics?%s&faults=3&fmode=%s&fseed=%d",
					fk.Query, faultModes[r.intn(len(faultModes))], 1+r.intn(faultSeeds))})
			}
			for i := 0; i < fk.aware; i++ {
				reqs = append(reqs, fsimReq(k, fk.Key, faultModes[r.intn(2)], 1+r.intn(faultSeeds), "aware"))
			}
			for i := 0; i < fk.oblivious; i++ {
				reqs = append(reqs, fsimReq(k, fk.Key, faultModes[r.intn(2)], 1+r.intn(faultSeeds), "oblivious"))
			}
			for i := 0; i < fk.multipath; i++ {
				dsts := dstSets[k]
				reqs = append(reqs, multipathReq(k, fk.Key, r.intn(fk.Nodes), dsts[r.intn(len(dsts))],
					faultModes[r.intn(2)], 1+r.intn(faultSeeds)))
			}
		}
		return reqs
	})
	p.Traced = 300
}

// genCold: /v1/metrics cycling through coldKeys in one seeded order
// against a 1 MiB single-shard cache.  A fixed cycle longer than the
// cache holds is the LRU's worst case, so nearly every request rebuilds.
func genCold(p *Plan) {
	p.Keys = coldKeys
	p.CacheMB, p.Shards = 1, 1
	order := make([]Request, len(p.Keys))
	for k, key := range p.Keys {
		order[k] = metricsReq(k, key)
	}
	newRNG(p.Seed, 4).shuffle(order)
	p.Prime = order
	for i := 0; i < 100; i++ {
		p.Requests = append(p.Requests, order...)
	}
	p.Traced = 250
}
