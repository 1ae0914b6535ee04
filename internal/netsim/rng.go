package netsim

import "math/bits"

// rng is the simulator's per-node generator: SplitMix64, a 64-bit counter
// advanced by the golden-ratio increment and hashed on output.  It is a
// plain 8-byte value seeded in O(1) from (seed, node), so a Sim keeps one
// per node in a flat slice.  Each node's draws come only from its own
// generator, which keeps sharded rounds race-free and worker-independent.
type rng struct{ state uint64 }

const golden64 = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// newRNG returns node's generator for a run seeded with seed.  The node is
// hashed before it meets the seed and the result hashed again, so distinct
// nodes of one run start at distinct, unrelated states.
func newRNG(seed int64, node int) rng {
	return rng{state: mix64(uint64(seed) ^ mix64(uint64(node)+golden64))}
}

// next advances the generator and returns 64 random bits.
func (r *rng) next() uint64 {
	r.state += golden64
	return mix64(r.state)
}

// float64 returns a uniform float64 in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) * 0x1p-53 }

// uint64n returns a uniform value in [0, n) for n > 0: Lemire's
// multiply-shift, rejecting the few low products that would bias it.
func (r *rng) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.next(), n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			hi, lo = bits.Mul64(r.next(), n)
		}
	}
	return hi
}

// intn returns a uniform int in [0, n) for n > 0.
func (r *rng) intn(n int) int { return int(r.uint64n(uint64(n))) }

// int32n returns a uniform int32 in [0, n) for n > 0.
func (r *rng) int32n(n int32) int32 {
	//lint:ignore indextrunc the draw is below n, an int32
	return int32(r.uint64n(uint64(n)))
}
