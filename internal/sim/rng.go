package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64
// seeded xorshift128+). Every stochastic choice in the simulators draws from
// an explicitly seeded RNG so that experiments are bit-reproducible.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64 so that nearby
// seeds yield uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// PermCycle returns a random single-cycle permutation of [0, n): following
// next[i] repeatedly from any start visits every element exactly once before
// returning to the start. This is exactly the pointer-chasing order used by
// the LENS microbenchmarks (Sattolo's algorithm). Entries are int32: the
// pointer-chase generators build one per run over millions of blocks, and
// half-size entries halve that transient heap.
func (r *RNG) PermCycle(n int) []int32 {
	if n > math.MaxInt32 {
		panic("sim: PermCycle over more than MaxInt32 elements")
	}
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i) // note: i, not i+1 — Sattolo's variant
		p[i], p[j] = p[j], p[i]
	}
	return p
}
