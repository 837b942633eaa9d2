// Package workload generates the synthetic instruction streams that stand in
// for the paper's benchmark binaries: SPEC CPU 2006/2017 workloads matched
// to Table IV's LLC MPKI and footprint statistics, and the cloud/persistent-
// memory workloads of Section V (Redis, YCSB, TPCC, fio sequential write,
// PMDK HashMap and LinkedList). Each generator is deterministic under its
// seed and produces instructions for the internal/cpu timing core.
package workload

import (
	"math"
	"sync"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// Perm returns a deterministic single-cycle permutation over [0, n) for the
// given seed (a shared helper for pointer-chasing experiment setups).
func Perm(n int, seed uint64) []int32 {
	if n < 1 {
		return nil
	}
	return sim.NewRNG(seed).PermCycle(n)
}

// Zipf samples integers in [0, n) with a zipfian distribution of exponent
// theta (YCSB uses ~0.99), biased so low indices are hot.
type Zipf struct {
	rng   *sim.RNG
	n     uint64
	theta float64
	zetan float64
	alpha float64
	eta   float64
}

// NewZipf builds a sampler over [0, n).
func NewZipf(rng *sim.RNG, n uint64, theta float64) *Zipf {
	z := &Zipf{rng: rng, n: n, theta: theta, zetan: zeta(n, theta)}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// zetaMemoCap bounds the zeta memo. Each distinct (n, θ) a process builds
// a sampler for takes one entry; a full memo is emptied and refills.
const zetaMemoCap = 64

type zetaKey struct {
	n     uint64
	theta float64
}

var zetaMemo = struct {
	sync.Mutex
	m map[zetaKey]float64
}{m: make(map[zetaKey]float64)}

// zeta returns the zipfian normaliser, the sum of i^-θ for i = 1..n. Its n
// powers are most of a sampler's set-up, and every YCSB job over one
// footprint sums the same ones, so sums are memoized by (n, θ), process-wide
// because generators build their samplers with nothing to hold a memo. A
// sum recomputed after the memo was emptied adds the same terms in the same
// order, so it is the same float to the bit, and no caller can tell whether
// another filled the memo.
func zeta(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	zetaMemo.Lock()
	sum, ok := zetaMemo.m[k]
	zetaMemo.Unlock()
	if ok {
		return sum
	}
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	zetaMemo.Lock()
	if len(zetaMemo.m) >= zetaMemoCap {
		clear(zetaMemo.m)
	}
	zetaMemo.m[k] = sum
	zetaMemo.Unlock()
	return sum
}

// Next samples one value.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// Gen is a streaming instruction generator implementing cpu.Workload.
type Gen struct {
	budget int
	emit   func(g *Gen) // refills g.queue with the next operation group
	// queue[head:] are the instructions not yet returned; once they run
	// out the array is reused from the start, so a warm Gen never
	// allocates.
	queue []cpu.Instr
	head  int
	rng   *sim.RNG
	state map[string]uint64
}

// Next implements cpu.Workload.
func (g *Gen) Next() (cpu.Instr, bool) {
	for g.head == len(g.queue) {
		if g.budget <= 0 {
			return cpu.Instr{}, false
		}
		g.queue, g.head = g.queue[:0], 0
		g.emit(g)
	}
	in := g.queue[g.head]
	g.head++
	g.budget--
	return in, true
}

// push appends instructions to the pending queue.
func (g *Gen) push(ins ...cpu.Instr) { g.queue = append(g.queue, ins...) }

// compute pushes n plain compute instructions.
func (g *Gen) compute(n int) {
	for i := 0; i < n; i++ {
		g.push(cpu.Instr{})
	}
}

// SPECBench describes one Table IV workload.
type SPECBench struct {
	Name  string
	Suite int // 2006 or 2017
	// MPKI is the LLC misses per thousand instructions measured on the
	// server (Table IV).
	MPKI float64
	// FootprintMB is the main-memory footprint.
	FootprintMB float64
	// PointerChase is the fraction of far accesses that are dependent
	// (pointer-heavy codes like mcf/omnetpp vs streaming codes like lbm).
	PointerChase float64
}

// SPECTable reproduces Table IV.
func SPECTable() []SPECBench {
	return []SPECBench{
		{Name: "gcc", Suite: 2006, MPKI: 2.9, FootprintMB: 1229, PointerChase: 0.4},
		{Name: "mcf", Suite: 2006, MPKI: 27.1, FootprintMB: 9318, PointerChase: 0.8},
		{Name: "sjeng", Suite: 2006, MPKI: 2.7, FootprintMB: 645, PointerChase: 0.5},
		{Name: "libquantum", Suite: 2006, MPKI: 3.4, FootprintMB: 2355, PointerChase: 0.1},
		{Name: "omnetpp", Suite: 2006, MPKI: 2.1, FootprintMB: 1434, PointerChase: 0.7},
		{Name: "cactusADM", Suite: 2006, MPKI: 2.0, FootprintMB: 2253, PointerChase: 0.1},
		{Name: "lbm", Suite: 2006, MPKI: 7.7, FootprintMB: 2970, PointerChase: 0.05},
		{Name: "wrf", Suite: 2006, MPKI: 2.4, FootprintMB: 1024, PointerChase: 0.15},
		{Name: "gcc17", Suite: 2017, MPKI: 21.5, FootprintMB: 1126, PointerChase: 0.4},
		{Name: "mcf17", Suite: 2017, MPKI: 26.3, FootprintMB: 8909, PointerChase: 0.8},
		{Name: "omnetpp17", Suite: 2017, MPKI: 2.1, FootprintMB: 983, PointerChase: 0.7},
		{Name: "deepsjeng17", Suite: 2017, MPKI: 2.5, FootprintMB: 594, PointerChase: 0.5},
		{Name: "xz17", Suite: 2017, MPKI: 2.7, FootprintMB: 1843, PointerChase: 0.3},
	}
}

// SPECBenchByName finds a Table IV entry.
func SPECBenchByName(name string) (SPECBench, bool) {
	for _, b := range SPECTable() {
		if b.Name == name {
			return b, true
		}
	}
	return SPECBench{}, false
}

// SPEC builds an instruction stream matching the bench's MPKI and footprint:
// a memRatio of operations touch memory; of those, a calibrated fraction
// goes to a random location in the full footprint (an LLC miss) while the
// rest hit a small cache-resident region.
func SPEC(b SPECBench, instructions int, seed uint64) cpu.Workload {
	const memRatio = 0.35
	const storeShare = 0.3
	farFrac := b.MPKI / 1000 / memRatio
	if farFrac > 1 {
		farFrac = 1
	}
	footprint := uint64(b.FootprintMB * (1 << 20))
	if footprint < 1<<20 {
		footprint = 1 << 20
	}
	rng := sim.NewRNG(seed ^ 0x5bec)
	g := &Gen{budget: instructions, rng: rng}
	hot := uint64(256 << 10) // fits the L2/L3 comfortably
	g.emit = func(g *Gen) {
		if g.rng.Float64() >= memRatio {
			g.push(cpu.Instr{})
			return
		}
		var addr uint64
		far := g.rng.Float64() < farFrac
		if far {
			addr = g.rng.Uint64n(footprint) &^ 63
		} else {
			addr = g.rng.Uint64n(hot) &^ 63
		}
		isStore := g.rng.Float64() < storeShare
		if isStore {
			g.push(cpu.Instr{IsMem: true, Addr: addr, Class: cpu.ClassWrite})
			return
		}
		dep := far && g.rng.Float64() < b.PointerChase
		g.push(cpu.Instr{IsMem: true, IsLoad: true, Addr: addr,
			DependsOnLoad: dep, Class: cpu.ClassRead})
	}
	return g
}
