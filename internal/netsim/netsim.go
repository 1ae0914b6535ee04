// Package netsim is a synchronous, packet-level interconnection-network
// simulator used to reproduce the paper's communication experiments:
// random uniform routing, total exchange, and permutation traffic under
// the unit link / unit chip capacity models.
//
// Model: store-and-forward, one routing decision per packet per node,
// per-directed-link FIFO queues, and per-link capacities in packets per
// round.  Fractional capacities (e.g. the 8w/15 off-chip links of an
// HSN(3,Q4) chip) accumulate as credits.  On-chip links are modelled as
// effectively infinite, following the paper's assumption that "on-chip
// links can be made fast enough so that they do not form a performance
// bottleneck".
//
// The simulator advances in two phases per round: phase A pops up to
// capacity packets from every link's output queue; phase B routes
// arrivals and injections into the destination nodes' queues.  Networks
// below inlineNodes (4096) nodes run both phases on the calling goroutine;
// larger ones split each phase over GOMAXPROCS node shards with a barrier
// in between.  Queue ownership moves from the source shard (phase A) to
// the target shard (phase B), so the phases are data-race free.  Every
// random draw a node makes (injection, destination, misroute) comes from
// its own SplitMix64 generator, seeded in O(1) from (seed, node), so
// results are deterministic for a fixed seed and independent of the shard
// count.  Per-link state lives in one slice indexed by the port map's arc
// offset, so New costs O(N + arcs) with a handful of allocations.
//
// Unlike the metric kernels in internal/topo and internal/graph, the
// simulator is not generic over topo.Source: a simulation's per-node
// queue and credit state is O(N) whatever the adjacency representation,
// and routers address *ports*, not neighbors, so the port banks are the
// simulated resource.  Implicit (codec-backed) topologies enter through
// topo.FromSource, which materializes their port map in the same
// canonical order as the CSR path — the simulator itself then runs
// identically on either origin.
package netsim

//lint:file-ignore ctxflow simulator setup and per-round sweeps are O(N) on networks capped by SimMaxNodes (enforced in serve) and checkNodeCount; the exported ...Ctx runners poll ctx once per round

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ipg/internal/topo"
)

// OnChipCapacity is the per-round packet capacity assigned to on-chip
// links.
const OnChipCapacity = math.MaxFloat64

// Router decides the outgoing port for a packet.
type Router interface {
	// NextPort returns the port index at cur on which to forward a packet
	// destined for dst (cur != dst).
	NextPort(cur, dst int) int
}

// Network is the static description of a simulated network.
type Network struct {
	Name string
	N    int
	// Ports is the port-labelled topology: Ports.Port(u, p) is the neighbor
	// reached from u via port p, or -1 if the port is absent at u (e.g. an
	// IPG generator that fixes u's label), and Ports.Cap(u, p) is the
	// capacity of the directed link at (u, p) in packets per round.
	Ports *topo.PortMap
	// ClusterOf assigns nodes to chips for off-chip accounting; nil means
	// every node is its own chip.
	ClusterOf []int32
	Router    Router
	// SinglePort restricts each node to transmitting on at most one
	// outgoing link per round (the single-port model of Section 3, of
	// which SDC is a special case); the default is all-port.
	SinglePort bool

	// Fault state, normally installed by Degrade.  DeadNode[u] marks a
	// failed node: it neither injects, forwards, nor receives.  DeadPort[u][p]
	// marks the directed link at (u, p) failed; Degrade kills both
	// directions of an edge together.  Nil slices mean fully healthy, and
	// the simulator's fault branches are skipped entirely.
	DeadNode []bool
	DeadPort [][]bool
	// PacketTTL bounds the hops a packet may take on a faulty network
	// before it is dropped (misrouting around faults can cycle); 0 means
	// the default of 4*N+64.  Ignored on healthy networks.
	PacketTTL int32
}

// Faulty reports whether the network carries any fault state.
func (n *Network) Faulty() bool { return n.DeadNode != nil || n.DeadPort != nil }

// nodeDead reports whether node u failed.
func (n *Network) nodeDead(u int) bool { return n.DeadNode != nil && n.DeadNode[u] }

// portDead reports whether the directed link at (u, p) failed (a link into
// a dead node counts as dead, so transmissions never target dead nodes).
func (n *Network) portDead(u, p int) bool {
	if n.DeadPort != nil && n.DeadPort[u][p] {
		return true
	}
	if n.DeadNode != nil {
		if v := n.Ports.Port(u, p); v >= 0 && n.DeadNode[v] {
			return true
		}
	}
	return false
}

// Validate checks structural consistency.
func (n *Network) Validate() error {
	if n.Ports == nil || n.Ports.N() != n.N {
		return fmt.Errorf("netsim: %s: port map node count mismatch", n.Name)
	}
	for u := 0; u < n.N; u++ {
		for p, v := range n.Ports.PortRow(u) {
			if v >= 0 && (int(v) >= n.N || n.Ports.Cap(u, p) <= 0) {
				return fmt.Errorf("netsim: %s: node %d port %d invalid", n.Name, u, p)
			}
		}
	}
	if n.ClusterOf != nil && len(n.ClusterOf) != n.N {
		return fmt.Errorf("netsim: %s: clusterOf length mismatch", n.Name)
	}
	if n.Router == nil {
		return fmt.Errorf("netsim: %s: no router", n.Name)
	}
	if n.DeadNode != nil && len(n.DeadNode) != n.N {
		return fmt.Errorf("netsim: %s: deadNode length mismatch", n.Name)
	}
	if n.DeadPort != nil {
		if len(n.DeadPort) != n.N {
			return fmt.Errorf("netsim: %s: deadPort length mismatch", n.Name)
		}
		for u := 0; u < n.N; u++ {
			if len(n.DeadPort[u]) != n.Ports.Arity(u) {
				return fmt.Errorf("netsim: %s: deadPort arity mismatch at node %d", n.Name, u)
			}
		}
	}
	if n.PacketTTL < 0 {
		return fmt.Errorf("netsim: %s: negative packet TTL", n.Name)
	}
	return nil
}

// offChip reports whether the directed link u->v crosses chips.
func (n *Network) offChip(u, v int32) bool {
	return n.ClusterOf != nil && n.ClusterOf[u] != n.ClusterOf[v]
}

// Packet is a unicast payload descriptor.
type Packet struct {
	Dst  int32
	Born int32 // round of injection
	// TTL is the remaining hop budget on a faulty network (misrouting
	// around faults can cycle); unused — and never decremented — on
	// healthy networks.
	TTL int32
}

// Stats aggregates simulation measurements.  On a faulty network every
// injected packet is eventually accounted exactly once:
// Injected = Delivered + Dropped + InFlight.
type Stats struct {
	Rounds       int
	Injected     int64
	Delivered    int64
	Dropped      int64 // lost to faults: no alive route, or TTL exhausted
	Retried      int64 // misroute retries: routing decisions diverted off a dead port
	TotalLatency int64 // sum over delivered packets of (arrival - born)
	Hops         int64 // total link transmissions
	OffChipHops  int64 // transmissions crossing chips
	InFlight     int64 // packets still queued when the run ended
}

// AvgLatency returns mean delivery latency in rounds.
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}

// OffChipPerPacket returns mean off-chip transmissions per delivered
// packet.
func (s Stats) OffChipPerPacket() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.OffChipHops) / float64(s.Delivered)
}

// HopsPerPacket returns mean total transmissions per delivered packet.
func (s Stats) HopsPerPacket() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Delivered)
}

// Sim is a running simulation instance.
type Sim struct {
	Net *Network

	// arcs holds the per-directed-link state, indexed like the port map's
	// flat banks: port p of u is arcs[Ports.ArcOffset(u)+p].
	arcs []arc
	// inLinks[inOff[v]:inOff[v+1]] are the links arriving at v, in
	// ascending (source, port) order: the reverse CSR of the port map.
	inOff   []uint32
	inLinks []inLink

	round int32
	stats Stats

	// Persistent parallelism state: the node shards are fixed at New, and
	// the per-shard worker closures plus the two phase closures are
	// created once, so Step allocates nothing for its fan-out.  A single
	// shard runs both phases on the calling goroutine.  curPhase is
	// written between phases (single-threaded points) and only read by
	// the workers.
	shards   []shard
	phaseAFn func(*shard)
	phaseBFn func(*shard)
	curPhase func(*shard)
	wg       sync.WaitGroup

	// Livelock detection: with fractional link capacities, rounds where
	// nothing moves are legitimate while credits accumulate; only a streak
	// longer than the slowest link's refill period indicates a stuck
	// simulation.
	zeroStreak int
	maxIdle    int

	// rrPort is the per-node round-robin pointer for single-port mode.
	rrPort []int

	// faulty caches Net.Faulty(); every fault branch below is skipped when
	// false, so healthy simulations run the exact pre-fault code path.
	faulty bool
	// ttl0 is the initial TTL stamped on packets of a faulty network.
	ttl0 int32

	// injectFn, if set, is called in phase B for each node to produce new
	// packets this round.
	injectFn func(u int, round int32, emit func(dst int32))

	perNode []localStats
	rngs    []rng // rngs[u] is node u's generator
}

// arcSlots is the packet capacity each link's queue and outbox start with.
const arcSlots = 2

// arc is one directed link's simulator state.
type arc struct {
	queue  []Packet // FIFO; the head is at index head
	head   int
	credit float64  // token bucket of a slow (capacity < backlog) link
	outbox []Packet // phase A's transmissions, consumed in phase B
}

// backlog returns the number of packets waiting on the link.
func (a *arc) backlog() int { return len(a.queue) - a.head }

// push appends a packet to the link's queue.
func (a *arc) push(pkt Packet) { a.queue = append(a.queue, pkt) }

// inLink is a link arriving at a node: its source and its arc index.
type inLink struct {
	src int32
	arc uint32
}

// shard is a contiguous node range [lo, hi) that one worker owns in each
// phase.  emit is the injection closure phase B hands the injector; it
// enqueues at cur, the node the shard is injecting at, so one closure per
// shard serves every node.
type shard struct {
	lo, hi int
	cur    int
	moved  int // packets phase A transmitted this round
	emit   func(dst int32)
	run    func()
}

type localStats struct {
	delivered, latency, hops, offchip, injected, dropped, retried int64
	_pad                                                          [1]int64 // reduce false sharing
	// hist counts deliveries by latency (index = rounds, last bucket =
	// overflow); nil unless EnableLatencyHistogram was called.  Node-local,
	// so updates are race-free under the phase-B sharding.
	hist []int64
}

// checkNodeCount validates that a node count fits the int32 node-id /
// int16 port-id representation used throughout the simulator, so oversized
// caller-built networks fail loudly instead of wrapping ids.
func checkNodeCount(n int) error {
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("netsim: node count %d outside [0, %d]", n, math.MaxInt32)
	}
	return nil
}

// inlineNodes is the network size below which a simulation runs both
// phases of every round on the calling goroutine: on smaller networks
// spawning a worker per phase costs more than it saves.  It was chosen
// from BenchmarkNetsimShortRun's -cpu 1,2 table on a 2-vCPU x86-64 host:
// inline rounds won at every size up to 2048 nodes, two shards from 4096.
const inlineNodes = 4096

// New creates a simulation for the network with the given PRNG seed.
// Networks of inlineNodes or more nodes run each phase on GOMAXPROCS node
// shards; smaller ones run inline.  Results do not depend on the choice.
func New(net *Network, seed int64) (*Sim, error) {
	workers := 1
	if net.N >= inlineNodes {
		workers = runtime.GOMAXPROCS(0)
	}
	return newSim(net, seed, workers)
}

// newSim is New with an explicit shard count, clamped to [1, net.N].
func newSim(net *Network, seed int64, workers int) (*Sim, error) {
	if err := checkNodeCount(net.N); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		Net:    net,
		faulty: net.Faulty(),
	}
	if s.faulty {
		s.ttl0 = net.PacketTTL
		if s.ttl0 == 0 {
			if ttl := 4*int64(net.N) + 64; ttl <= math.MaxInt32 {
				s.ttl0 = int32(ttl)
			} else {
				s.ttl0 = math.MaxInt32
			}
		}
	}
	workers = max(1, min(workers, net.N))
	s.arcs = make([]arc, net.Ports.Arcs())
	// Every link starts with room for arcSlots queued and arcSlots
	// outgoing packets, carved from one arena, so the first packets of a
	// run do not allocate.
	arena := make([]Packet, 2*arcSlots*len(s.arcs))
	for i := range s.arcs {
		slots := arena[2*arcSlots*i : 2*arcSlots*(i+1) : 2*arcSlots*(i+1)]
		s.arcs[i].queue = slots[:0:arcSlots]
		s.arcs[i].outbox = slots[arcSlots:arcSlots]
	}
	s.perNode = make([]localStats, net.N)
	s.rngs = make([]rng, net.N)
	for u := range s.rngs {
		s.rngs[u] = newRNG(seed, u)
	}
	// Reverse CSR by counting sort over the present ports.  Counts go to
	// off[v+2], so after the prefix sum off[v+1] is v's first slot and
	// serves as its fill cursor; once filled it is v's end, which is where
	// v+1 starts.  Filling in ascending (u, p) order keeps each node's
	// in-links in that order.
	off := make([]uint32, net.N+2)
	minCap := math.Inf(1)
	for u := 0; u < net.N; u++ {
		for p, v := range net.Ports.PortRow(u) {
			if v >= 0 {
				off[v+2]++
				if c := net.Ports.Cap(u, p); c < minCap {
					minCap = c
				}
			}
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	s.inLinks = make([]inLink, off[net.N+1])
	for u := 0; u < net.N; u++ {
		base := net.Ports.ArcOffset(u)
		for p, v := range net.Ports.PortRow(u) {
			if v >= 0 {
				s.inLinks[off[v+1]] = inLink{src: int32(u), arc: uint32(base + p)}
				off[v+1]++
			}
		}
	}
	s.inOff = off[:net.N+1]
	s.maxIdle = 2
	if minCap < 1 {
		s.maxIdle = int(math.Ceil(1/minCap)) + 2
	}
	if net.SinglePort {
		s.rrPort = make([]int, net.N)
	}
	chunk := max(1, (net.N+workers-1)/workers)
	s.shards = make([]shard, max(1, (net.N+chunk-1)/chunk))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lo = min(i*chunk, net.N)
		sh.hi = min(sh.lo+chunk, net.N)
		sh.emit = func(dst int32) { s.emitAt(sh.cur, dst) }
		sh.run = func() {
			defer s.wg.Done()
			s.curPhase(sh)
		}
	}
	s.phaseAFn = s.phaseA
	s.phaseBFn = s.phaseB
	return s, nil
}

// SetInjector installs the per-round traffic source.  Phase B calls fn
// once per node and round, with an emit closure that enqueues at that
// node; emit must not be retained past the call.
func (s *Sim) SetInjector(fn func(u int, round int32, emit func(dst int32))) {
	s.injectFn = fn
}

// emitAt enqueues one injected packet at node v for the round phase B is
// currently processing (s.round is stable for the whole phase; the packet
// is born in round s.round+1, matching arrival accounting).
func (s *Sim) emitAt(v int, dst int32) {
	if int(dst) == v {
		return
	}
	if !s.faulty {
		p := s.routePort(v, dst)
		s.arc(v, p).push(Packet{Dst: dst, Born: s.round + 1})
		s.perNode[v].injected++
		return
	}
	s.perNode[v].injected++
	if s.Net.nodeDead(v) {
		// A dead source cannot inject; like Enqueue, count the packet as
		// injected-then-dropped so batch workloads with a fixed intended
		// total (e.g. total exchange) still drain to conservation.
		s.perNode[v].dropped++
		return
	}
	p := s.resolveFaulty(v, dst)
	if p < 0 {
		s.perNode[v].dropped++ // no alive route out of v
		return
	}
	s.arc(v, p).push(Packet{Dst: dst, Born: s.round + 1, TTL: s.ttl0})
}

// arc returns the state of the directed link at (u, p).
func (s *Sim) arc(u, p int) *arc { return &s.arcs[s.Net.Ports.ArcOffset(u)+p] }

// arcRow returns the states of u's links, indexed by port.
func (s *Sim) arcRow(u int) []arc {
	pm := s.Net.Ports
	return s.arcs[pm.ArcOffset(u):pm.ArcOffset(u+1)]
}

// EnableLatencyHistogram starts recording per-packet delivery latencies in
// buckets 0..maxLatency (larger values land in the overflow bucket).
func (s *Sim) EnableLatencyHistogram(maxLatency int) {
	for i := range s.perNode {
		s.perNode[i].hist = make([]int64, maxLatency+2)
	}
}

// LatencyPercentiles merges the per-node histograms and returns the
// requested percentiles (each in [0,1]) of the delivered-packet latency.
func (s *Sim) LatencyPercentiles(percentiles []float64) ([]int, error) {
	if s.perNode[0].hist == nil {
		return nil, fmt.Errorf("netsim: latency histogram not enabled")
	}
	merged := make([]int64, len(s.perNode[0].hist))
	var total int64
	for i := range s.perNode {
		for b, c := range s.perNode[i].hist {
			merged[b] += c
			total += c
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("netsim: no deliveries recorded")
	}
	out := make([]int, len(percentiles))
	for i, p := range percentiles {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("netsim: percentile %v out of [0,1]", p)
		}
		target := int64(p * float64(total-1))
		var cum int64
		for b, c := range merged {
			cum += c
			if cum > target {
				out[i] = b
				break
			}
		}
	}
	return out, nil
}

// Enqueue injects a packet at node u immediately (before the next round).
// On a faulty network a packet injected at a dead node, or with no alive
// route, is accounted as injected-then-dropped so conservation holds.
func (s *Sim) Enqueue(u int, dst int32) error {
	if int(dst) == u {
		return fmt.Errorf("netsim: packet to self at node %d", u)
	}
	if s.faulty {
		s.perNode[u].injected++
		if s.Net.nodeDead(u) {
			s.perNode[u].dropped++
			return nil
		}
		p := s.resolveFaulty(u, dst)
		if p < 0 {
			s.perNode[u].dropped++
			return nil
		}
		s.arc(u, p).push(Packet{Dst: dst, Born: s.round, TTL: s.ttl0})
		return nil
	}
	p := s.routePort(u, dst)
	if p < 0 || p >= s.Net.Ports.Arity(u) || s.Net.Ports.Port(u, p) < 0 {
		return fmt.Errorf("netsim: router returned invalid port %d at node %d for dst %d", p, u, dst)
	}
	s.arc(u, p).push(Packet{Dst: dst, Born: s.round})
	s.perNode[u].injected++
	return nil
}

// parallelNodes runs fn over every shard: inline for a single shard,
// otherwise one goroutine per shard through the persistent worker
// closures built in New, joined by wg.Wait before return.
func (s *Sim) parallelNodes(fn func(*shard)) {
	if len(s.shards) == 1 {
		fn(&s.shards[0])
		return
	}
	s.curPhase = fn
	s.wg.Add(len(s.shards))
	for i := range s.shards {
		go s.shards[i].run()
	}
	s.wg.Wait()
}

// phaseA pops up to capacity from each source queue of the shard into its
// outboxes.
func (s *Sim) phaseA(sh *shard) {
	net := s.Net
	sh.moved = 0
	for u := sh.lo; u < sh.hi; u++ {
		if s.faulty && net.nodeDead(u) {
			continue // dead nodes transmit nothing (their queues and outboxes stay empty)
		}
		if net.SinglePort {
			sh.moved += s.singlePortPhaseA(u)
			continue
		}
		caps := net.Ports.CapRow(u)
		row := s.arcRow(u)
		for p := range row {
			a := &row[p]
			avail := a.backlog()
			if avail == 0 {
				a.outbox = a.outbox[:0]
				continue
			}
			cap := caps[p]
			var take int
			if cap >= float64(avail) {
				take = avail
			} else {
				// Token bucket: credits accumulate across idle rounds
				// up to one round's worth plus one packet.
				a.credit += cap
				if limit := cap + 1; a.credit > limit {
					a.credit = limit
				}
				take = int(a.credit)
				if take > avail {
					take = avail
				}
				a.credit -= float64(take)
			}
			a.outbox = append(a.outbox[:0], a.queue[a.head:a.head+take]...)
			a.pop(take)
			sh.moved += take
		}
	}
}

// pop drops the n oldest packets of the queue, compacting a long-lived
// queue whose consumed prefix dominates it.
func (a *arc) pop(n int) {
	a.head += n
	if a.head == len(a.queue) {
		a.queue = a.queue[:0]
		a.head = 0
	} else if a.head > 4096 && a.head*2 > len(a.queue) {
		a.queue = append(a.queue[:0], a.queue[a.head:]...)
		a.head = 0
	}
}

// phaseB routes arrivals and injections into the shard's destination
// nodes.  s.round is stable for the whole phase (incremented only after
// the join in Step), so reading it here is race-free.
func (s *Sim) phaseB(sh *shard) {
	net := s.Net
	round := s.round
	for v := sh.lo; v < sh.hi; v++ {
		sh.cur = v
		if s.faulty && net.nodeDead(v) {
			// Dead nodes receive and forward nothing, but their injector
			// still runs: emitAt accounts each intended packet as
			// injected-then-dropped so batch workloads drain to conservation.
			if s.injectFn != nil {
				s.injectFn(v, round+1, sh.emit)
			}
			continue
		}
		ls := &s.perNode[v]
		for _, il := range s.inLinks[s.inOff[v]:s.inOff[v+1]] {
			box := s.arcs[il.arc].outbox
			if len(box) == 0 {
				continue
			}
			//lint:ignore indextrunc v < net.N, which New bounds via checkNodeCount
			off := net.offChip(il.src, int32(v))
			for _, pkt := range box {
				ls.hops++
				if off {
					ls.offchip++
				}
				if int(pkt.Dst) == v {
					ls.delivered++
					lat := int64(round + 1 - pkt.Born)
					ls.latency += lat
					if ls.hist != nil {
						b := int(lat)
						if b >= len(ls.hist) {
							b = len(ls.hist) - 1
						}
						ls.hist[b]++
					}
					continue
				}
				if s.faulty {
					// Each forwarding hop costs one TTL unit; a packet that
					// runs out (or has no alive route) is dropped, keeping
					// injected = delivered + dropped + in-flight exact.
					pkt.TTL--
					if pkt.TTL <= 0 {
						ls.dropped++
						continue
					}
					p := s.resolveFaulty(v, pkt.Dst)
					if p < 0 {
						ls.dropped++
						continue
					}
					s.arc(v, p).push(pkt)
					continue
				}
				s.arc(v, s.routePort(v, pkt.Dst)).push(pkt)
			}
		}
		if s.injectFn != nil {
			s.injectFn(v, round+1, sh.emit)
		}
	}
}

// Step advances the simulation one round.  It returns the number of
// packets that moved or were injected (0 with packets in flight indicates
// livelock, reported as an error).
func (s *Sim) Step() (int, error) {
	net := s.Net
	// Phase A: pop up to capacity from each source queue into outboxes.
	s.parallelNodes(s.phaseAFn)
	// Phase B: arrivals and injections, sharded by destination node.
	s.parallelNodes(s.phaseBFn)
	s.round++
	s.stats.Rounds++
	// Outboxes keep this round's transmissions until the next phase A
	// overwrites them; nothing reads them in between.
	moved := 0
	for i := range s.shards {
		moved += s.shards[i].moved
	}
	if moved == 0 && s.injectFn == nil && s.InFlight() > 0 {
		s.zeroStreak++
		if s.zeroStreak > s.maxIdle {
			return 0, fmt.Errorf("netsim: %s: livelock with %d packets in flight", net.Name, s.InFlight())
		}
	} else {
		s.zeroStreak = 0
	}
	return moved, nil
}

// singlePortPhaseA transmits at most one packet at node u, on the next
// nonempty port in round-robin order (credits still gate slow links), and
// returns the number transmitted.
func (s *Sim) singlePortPhaseA(u int) int {
	row := s.arcRow(u)
	np := len(row)
	for p := range row {
		row[p].outbox = row[p].outbox[:0]
	}
	if np == 0 {
		return 0
	}
	caps := s.Net.Ports.CapRow(u)
	start := s.rrPort[u]
	for off := 0; off < np; off++ {
		p := (start + off) % np
		a := &row[p]
		if a.backlog() == 0 {
			continue
		}
		if cap := caps[p]; cap < 1 {
			a.credit += cap
			if limit := cap + 1; a.credit > limit {
				a.credit = limit
			}
			if a.credit < 1 {
				continue // link not ready; try another port
			}
			a.credit--
		}
		a.outbox = append(a.outbox[:0], a.queue[a.head])
		a.pop(1)
		s.rrPort[u] = (p + 1) % np
		return 1
	}
	return 0
}

// InFlight returns the number of queued packets.
func (s *Sim) InFlight() int64 {
	var total int64
	for i := range s.arcs {
		total += int64(s.arcs[i].backlog())
	}
	return total
}

// Stats reduces the per-node counters into the aggregate view.
func (s *Sim) Stats() Stats {
	out := s.stats
	for i := range s.perNode {
		ls := &s.perNode[i]
		out.Delivered += ls.delivered
		out.TotalLatency += ls.latency
		out.Hops += ls.hops
		out.OffChipHops += ls.offchip
		out.Injected += ls.injected
		out.Dropped += ls.dropped
		out.Retried += ls.retried
	}
	out.InFlight = s.InFlight()
	return out
}

// ResetStats zeroes the measurement counters (e.g. after warmup) without
// touching queue state.
func (s *Sim) ResetStats() {
	s.stats = Stats{}
	for i := range s.perNode {
		hist := s.perNode[i].hist
		s.perNode[i] = localStats{}
		if hist != nil {
			for b := range hist {
				hist[b] = 0
			}
			s.perNode[i].hist = hist
		}
	}
}
