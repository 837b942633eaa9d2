// Package lens is the Low-level profilEr for Non-volatile memory Systems:
// three microbenchmarks (pointer chasing, overwrite, stride) and three
// probers (buffer, policy, performance) that drive any mem.System — the
// VANS model, the baseline emulators, or the empirical Optane reference —
// and reverse-engineer its buffer sizes, granularities, hierarchy,
// wear-leveling parameters, and interleaving scheme from latency and
// bandwidth patterns alone.
package lens

import (
	"repro/internal/analysis"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/sim"
)

// MakeSystem builds a fresh instance of the system under test. Probers need
// fresh instances so one experiment's buffer state does not pollute the
// next, exactly as LENS remounts its dummy filesystem between runs.
type MakeSystem func() mem.System

// Options bounds the microbenchmark run sizes so scaled-down unit-test
// systems and full-size experiment systems share the code.
type Options struct {
	// MaxSteps caps the accesses per measurement pass.
	MaxSteps int
	// WarmPasses runs extra untimed passes before measuring.
	WarmPasses int
	// Window is the outstanding-access window for bandwidth runs.
	Window int
	// Seed drives the pointer-chasing permutations.
	Seed uint64
}

// DefaultOptions returns sizes good for full experiments.
func DefaultOptions() Options {
	return Options{MaxSteps: 24000, WarmPasses: 1, Window: 10, Seed: 42}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxSteps == 0 {
		o.MaxSteps = d.MaxSteps
	}
	if o.Window == 0 {
		o.Window = d.Window
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// chaseAccesses builds the access list of a pointer-chasing pass: PC-Blocks
// of blockSize visited in a single-cycle random permutation, each block read
// (or written) sequentially in 64B lines. steps counts 64B accesses.
func chaseAccesses(region, blockSize uint64, op mem.Op, steps int, base uint64, seed uint64) []mem.Access {
	if blockSize < 64 {
		blockSize = 64
	}
	nBlocks := int(region / blockSize)
	if nBlocks < 1 {
		nBlocks = 1
	}
	var perm []int32
	if nBlocks > 1 {
		perm = sim.NewRNG(seed).PermCycle(nBlocks)
	} else {
		perm = []int32{0}
	}
	linesPerBlock := int(blockSize / 64)
	accs := make([]mem.Access, 0, steps)
	at := 0
	for len(accs) < steps {
		blockBase := base + uint64(at)*blockSize
		for l := 0; l < linesPerBlock && len(accs) < steps; l++ {
			accs = append(accs, mem.Access{Op: op, Addr: blockBase + uint64(l)*64, Size: 64})
		}
		at = int(perm[at])
	}
	return accs
}

// PtrChase runs the pointer-chasing microbenchmark: random block order,
// sequential 64B accesses within each block, dependent chain. It returns
// the steady-state average latency per cache line in ns.
func PtrChase(mk MakeSystem, region, blockSize uint64, op mem.Op, opt Options) float64 {
	opt = opt.withDefaults()
	sys := mk()
	d := mem.NewDriver(sys)

	// Warm passes: cover the whole region so capacity effects are steady
	// state, capped to keep runs tractable.
	warmSteps := int(region / 64)
	if warmSteps > 4*opt.MaxSteps {
		warmSteps = 4 * opt.MaxSteps
	}
	for p := 0; p < opt.WarmPasses; p++ {
		warm := chaseAccesses(region, blockSize, op, warmSteps, 0, opt.Seed)
		if op.IsWrite() {
			d.RunWindow(warm, opt.Window)
		} else {
			d.RunChain(warm)
		}
	}

	steps := int(region / 64)
	if steps > opt.MaxSteps {
		steps = opt.MaxSteps
	}
	if steps < 64 {
		steps = 64
	}
	accs := chaseAccesses(region, blockSize, op, steps, 0, opt.Seed+1)
	res := d.RunChainTimed(accs)
	return mem.ToNs(sys, res.TotalCycles) / float64(len(accs))
}

// PtrChaseSweep measures latency per CL across region sizes (the buffer
// prober's overflow scan, Figures 1b/3b/5a/5b/9a).
func PtrChaseSweep(mk MakeSystem, regions []uint64, blockSize uint64, op mem.Op, opt Options) *analysis.Series {
	s := &analysis.Series{
		Name:   "ptrchase-" + op.String(),
		XLabel: "access region (bytes)",
		YLabel: "latency per CL (ns)",
	}
	// Each sweep point builds a fresh system from fixed seeds, so points run
	// concurrently and land in their slot — output matches a sequential run.
	lat := make([]float64, len(regions))
	pool.ForEach(len(regions), func(i int) {
		lat[i] = PtrChase(mk, regions[i], blockSize, op, opt)
	})
	for i, r := range regions {
		s.Add(float64(r), lat[i])
	}
	return s
}

// RaWResult holds the read-after-write experiment outputs (Figure 5c).
type RaWResult struct {
	RaWNs       float64 // combined write-then-read roundtrip per CL
	RPlusWNs    float64 // sum of independently measured read and write
	SpeedupFast bool    // whether RaW < R+W (parallel fast-forwarding)
}

// ReadAfterWrite issues writes in pointer-chasing order, a fence, then reads
// in the same order, and compares against separate read and write runs.
func ReadAfterWrite(mk MakeSystem, region uint64, opt Options) RaWResult {
	opt = opt.withDefaults()
	steps := int(region / 64)
	if steps > opt.MaxSteps/2 {
		steps = opt.MaxSteps / 2
	}
	if steps < 8 {
		steps = 8
	}

	// Combined RaW run: write pass, mfence (which flushes the LSQ), read
	// pass — repeated so the roundtrip is steady state.
	sys := mk()
	d := mem.NewDriver(sys)
	const rounds = 3
	start := sys.Engine().Now()
	for r := 0; r < rounds; r++ {
		d.RunChain(chaseAccesses(region, 64, mem.OpWriteNT, steps, 0, opt.Seed))
		d.Fence()
		d.RunChain(chaseAccesses(region, 64, mem.OpRead, steps, 0, opt.Seed))
	}
	rawTotal := mem.ToNs(sys, sys.Engine().Now()-start) / float64(2*steps*rounds)

	// R+W uses the steady-state per-CL costs of the pure store stream and
	// pure load stream, the way the paper sums the Figure 5a curves.
	wNs := PtrChase(mk, region, 64, mem.OpWriteNT, opt)
	rNs := PtrChase(mk, region, 64, mem.OpRead, opt)

	rpw := (wNs + rNs) / 2
	return RaWResult{RaWNs: rawTotal, RPlusWNs: rpw, SpeedupFast: rawTotal < rpw}
}

// Overwrite repeatedly writes a region of regionSize (64B stores + fence per
// iteration) and returns the per-iteration latencies in ns (Figure 7b).
func Overwrite(sys mem.System, base, regionSize uint64, iters int) []float64 {
	d := mem.NewDriver(sys)
	lines := int(regionSize / 64)
	if lines < 1 {
		lines = 1
	}
	lats := make([]float64, 0, iters)
	for it := 0; it < iters; it++ {
		start := sys.Engine().Now()
		accs := make([]mem.Access, lines)
		for l := 0; l < lines; l++ {
			accs[l] = mem.Access{Op: mem.OpWriteNT, Addr: base + uint64(l)*64, Size: 64}
		}
		d.RunWindow(accs, 8)
		d.Fence()
		lats = append(lats, mem.ToNs(sys, sys.Engine().Now()-start))
	}
	return lats
}

// StrideBandwidth reads (or writes) totalBytes with the given stride and
// returns GB/s (the performance prober's bandwidth measurement).
func StrideBandwidth(mk MakeSystem, stride, totalBytes uint64, op mem.Op, opt Options) float64 {
	opt = opt.withDefaults()
	sys := mk()
	d := mem.NewDriver(sys)
	n := int(totalBytes / stride)
	if n > opt.MaxSteps {
		n = opt.MaxSteps
	}
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{Op: op, Addr: uint64(i) * stride, Size: 64}
	}
	elapsed := d.RunWindow(accs, opt.Window)
	if op.IsWrite() {
		// Include the drain so posted writes do not overstate bandwidth.
		start := sys.Engine().Now()
		d.Fence()
		elapsed += sys.Engine().Now() - start
	}
	return mem.BandwidthGBs(sys, uint64(n)*64, elapsed)
}

// SeqWriteTime measures the execution time (ns) of size/64 sequential 64B
// writes plus a final fence (Figure 7a's interleaving probe).
func SeqWriteTime(mk MakeSystem, size uint64, opt Options) float64 {
	opt = opt.withDefaults()
	sys := mk()
	d := mem.NewDriver(sys)
	n := int(size / 64)
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{Op: mem.OpWriteNT, Addr: uint64(i) * 64, Size: 64}
	}
	start := sys.Engine().Now()
	d.RunWindow(accs, 8)
	d.Fence()
	return mem.ToNs(sys, sys.Engine().Now()-start)
}
