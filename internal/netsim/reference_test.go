package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ipg/internal/fault"
	"ipg/internal/topo"
)

// refSim is a naive sequential reference for Sim: the same round
// semantics written as directly as possible, with per-node, per-port
// queues as slices of slices, in-links found by scanning every port of
// every node, no arenas and no shards.  It shares only the per-node
// generator with Sim, so the two must agree draw for draw.
type refSim struct {
	net     *Network
	queues  [][][]Packet
	credits [][]float64
	outbox  [][][]Packet
	rr      []int
	rngs    []rng
	ttl0    int32
	round   int32
	st      Stats
}

func newRefSim(net *Network, seed int64) *refSim {
	r := &refSim{net: net, rr: make([]int, net.N), rngs: make([]rng, net.N)}
	for u := 0; u < net.N; u++ {
		np := net.Ports.Arity(u)
		r.queues = append(r.queues, make([][]Packet, np))
		r.credits = append(r.credits, make([]float64, np))
		r.outbox = append(r.outbox, make([][]Packet, np))
		r.rngs[u] = newRNG(seed, u)
	}
	if net.Faulty() {
		r.ttl0 = net.PacketTTL
		if r.ttl0 == 0 {
			r.ttl0 = int32(4*net.N + 64)
		}
	}
	return r
}

func (r *refSim) dead(u int) bool { return r.net.DeadNode != nil && r.net.DeadNode[u] }

// usable reports whether port p of u is present, alive, and leads to a
// live node.
func (r *refSim) usable(u, p int) bool {
	v := r.net.Ports.Port(u, p)
	return v >= 0 && (r.net.DeadPort == nil || !r.net.DeadPort[u][p]) && !r.dead(int(v))
}

// port is where u forwards a packet for dst, or -1 to drop it.  On a
// faulty network a decision that lands on an unusable port is diverted
// to a uniformly random usable one.
func (r *refSim) port(u int, dst int32) int {
	var p int
	if ar, ok := r.net.Router.(AdaptiveRouter); ok {
		p = ar.NextPortAdaptive(u, int(dst), func(q int) int { return len(r.queues[u][q]) })
	} else {
		p = r.net.Router.NextPort(u, int(dst))
	}
	if !r.net.Faulty() || (p >= 0 && p < r.net.Ports.Arity(u) && r.usable(u, p)) {
		return p
	}
	if p < 0 {
		return -1
	}
	var alive []int
	for q := 0; q < r.net.Ports.Arity(u); q++ {
		if r.usable(u, q) {
			alive = append(alive, q)
		}
	}
	if len(alive) == 0 {
		return -1
	}
	r.st.Retried++
	return alive[r.rngs[u].intn(len(alive))]
}

// emit injects a packet at u, born next round.
func (r *refSim) emit(u int, dst int32) {
	if int(dst) == u {
		return
	}
	r.st.Injected++
	p := -1
	if !r.dead(u) {
		p = r.port(u, dst)
	}
	if p < 0 {
		r.st.Dropped++
		return
	}
	r.queues[u][p] = append(r.queues[u][p], Packet{Dst: dst, Born: r.round + 1, TTL: r.ttl0})
}

// send moves the first k packets of u's port-p queue to its outbox.
func (r *refSim) send(u, p, k int) {
	r.outbox[u][p] = append(r.outbox[u][p], r.queues[u][p][:k]...)
	r.queues[u][p] = r.queues[u][p][k:]
}

// step runs one round: every live node transmits, then every node takes
// its arrivals and injections.
func (r *refSim) step(inject func(u int)) {
	net := r.net
	for u := 0; u < net.N; u++ {
		for p := range r.outbox[u] {
			r.outbox[u][p] = nil
		}
		if r.dead(u) {
			continue
		}
		np := len(r.queues[u])
		for i := 0; i < np; i++ {
			p, c := i, net.Ports.Cap(u, i)
			if net.SinglePort {
				p = (r.rr[u] + i) % np
				c = net.Ports.Cap(u, p)
			}
			avail := len(r.queues[u][p])
			if avail == 0 {
				continue
			}
			if net.SinglePort {
				if c < 1 {
					r.credits[u][p] = min(r.credits[u][p]+c, c+1)
					if r.credits[u][p] < 1 {
						continue
					}
					r.credits[u][p]--
				}
				r.send(u, p, 1)
				r.rr[u] = (p + 1) % np
				break
			}
			if c >= float64(avail) {
				r.send(u, p, avail)
				continue
			}
			r.credits[u][p] = min(r.credits[u][p]+c, c+1)
			k := min(int(r.credits[u][p]), avail)
			r.credits[u][p] -= float64(k)
			r.send(u, p, k)
		}
	}
	for v := 0; v < net.N; v++ {
		for u := 0; u < net.N && !r.dead(v); u++ {
			for p := range r.outbox[u] {
				if int(net.Ports.Port(u, p)) != v {
					continue
				}
				for _, pkt := range r.outbox[u][p] {
					r.st.Hops++
					if net.ClusterOf != nil && net.ClusterOf[u] != net.ClusterOf[v] {
						r.st.OffChipHops++
					}
					if int(pkt.Dst) == v {
						r.st.Delivered++
						r.st.TotalLatency += int64(r.round + 1 - pkt.Born)
						continue
					}
					if net.Faulty() {
						if pkt.TTL--; pkt.TTL <= 0 {
							r.st.Dropped++
							continue
						}
					}
					q := r.port(v, pkt.Dst)
					if q < 0 {
						r.st.Dropped++
						continue
					}
					r.queues[v][q] = append(r.queues[v][q], pkt)
				}
			}
		}
		inject(v)
	}
	r.round++
	r.st.Rounds++
}

// runRandom is RunRandomUniform's traffic and measurement window.
func (r *refSim) runRandom(rate float64, warmup, measure int) Stats {
	n := int32(r.net.N)
	draw := func(u int) {
		g := &r.rngs[u]
		other := func() int32 {
			d := g.int32n(n - 1)
			if d >= int32(u) {
				d++
			}
			return d
		}
		x := rate
		for ; x >= 1; x-- {
			r.emit(u, other())
		}
		if x > 0 && g.float64() < x {
			r.emit(u, other())
		}
	}
	for i := 0; i < warmup; i++ {
		r.step(draw)
	}
	r.st = Stats{}
	for i := 0; i < measure; i++ {
		r.step(draw)
	}
	for u := range r.queues {
		for _, q := range r.queues[u] {
			r.st.InFlight += int64(len(q))
		}
	}
	return r.st
}

// randomPortNetwork returns a small connected network with shuffled port
// order, absent and parallel ports, mixed link capacities and random
// chips, routed by a table router.
func randomPortNetwork(t *testing.T, rnd *rand.Rand) *Network {
	n := 2 + rnd.Intn(30)
	nbrs := make([][]int32, n)
	link := func(u, v int) {
		nbrs[u] = append(nbrs[u], int32(v))
		nbrs[v] = append(nbrs[v], int32(u))
	}
	for u := 0; u+1 < n; u++ {
		link(u, u+1)
	}
	for i := rnd.Intn(n + 1); i > 0; i-- {
		if u, v := rnd.Intn(n), rnd.Intn(n); u != v {
			link(u, v) // may duplicate an edge: parallel ports
		}
	}
	capChoices := []float64{0.25, 0.5, 1, 1.5, 3, OnChipCapacity}
	ports := make([][]int32, n)
	caps := make([][]float64, n)
	for u := range nbrs {
		row := append([]int32(nil), nbrs[u]...)
		if rnd.Intn(3) == 0 {
			row = append(row, -1)
		}
		rnd.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		ports[u] = row
		for range row {
			caps[u] = append(caps[u], capChoices[rnd.Intn(len(capChoices))])
		}
	}
	net := &Network{Name: fmt.Sprintf("random-%d", n), N: n, Ports: topo.PortMapFromRows(ports, caps)}
	if chip := 1 << rnd.Intn(3); chip > 1 {
		net.ClusterOf = make([]int32, n)
		for u := range net.ClusterOf {
			net.ClusterOf[u] = int32(u / chip)
		}
	}
	tr, err := NewTableRouter(net)
	if err != nil {
		t.Fatal(err)
	}
	net.Router = tr
	return net
}

// TestReferenceSimulator requires Sim's Stats to equal the reference's
// over random small networks, fault specs, capacities, single-port mode,
// rates, seeds and shard counts.
func TestReferenceSimulator(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 150; i++ {
		var net *Network
		switch rnd.Intn(3) {
		case 0:
			d := 2 + rnd.Intn(4)
			net = mustHypercube(t, d, rnd.Intn(d), []float64{0.5, 2, 6}[rnd.Intn(3)])
			if rnd.Intn(2) == 0 {
				net.Router = AdaptiveHypercube{D: d}
			}
		default:
			net = randomPortNetwork(t, rnd)
		}
		net.SinglePort = rnd.Intn(4) == 0
		desc := net.Name
		if mode := rnd.Intn(4); mode > 0 && net.N > 3 {
			spec := fault.Spec{Mode: fault.Nodes, Count: 1 + rnd.Intn(net.N/4+1), Seed: rnd.Int63()}
			if mode == 2 {
				spec = fault.Spec{Mode: fault.Links, Count: 1 + rnd.Intn(len(undirectedLinks(net))/4+1), Seed: rnd.Int63()}
			}
			if mode == 3 && net.ClusterOf != nil && net.ClusterOf[net.N-1] > 0 {
				spec = fault.Spec{Mode: fault.Chips, Count: 1, Seed: rnd.Int63()}
			}
			aware := rnd.Intn(2) == 0
			net = degraded(t, net, spec, aware)
			net.PacketTTL = int32(rnd.Intn(2) * (2 + rnd.Intn(8)))
			desc += fmt.Sprintf(" %+v aware=%v ttl=%d", spec, aware, net.PacketTTL)
		}
		seed := rnd.Int63()
		rate := []float64{0.05, 0.3, 0.8, 1.5}[rnd.Intn(4)]
		warmup, measure := rnd.Intn(20), 1+rnd.Intn(40)
		workers := 1 + rnd.Intn(4)

		want := newRefSim(net, seed).runRandom(rate, warmup, measure)
		s, err := newSim(net, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.runRandom(context.Background(), rate, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != want {
			t.Fatalf("case %d: %s single-port=%v seed=%d rate=%v warmup=%d measure=%d shards=%d:\n sim       %+v\n reference %+v",
				i, desc, net.SinglePort, seed, rate, warmup, measure, workers, res.Stats, want)
		}
	}
}
