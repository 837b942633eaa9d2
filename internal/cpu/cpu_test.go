package cpu

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/nvdimm"
	"repro/internal/sim"
	"repro/internal/vans"
)

// dramSystem returns a plain DDR4 system for CPU tests.
func dramSystem() mem.System {
	cfg := dram.DefaultConfig()
	cfg.RefreshEnabled = false
	return dram.NewController(sim.NewEngine(), cfg)
}

func vansSystem() mem.System {
	cfg := vans.DefaultConfig()
	cfg.NV.Media.Capacity = 64 << 20
	return vans.New(cfg)
}

// computeOnly generates n non-memory instructions.
func computeOnly(n int) *SliceWorkload {
	w := &SliceWorkload{Instrs: make([]Instr, n)}
	return w
}

// streamLoads generates loads over a footprint with given stride.
func streamLoads(n int, stride, footprint uint64, dep bool) *SliceWorkload {
	w := &SliceWorkload{}
	for i := 0; i < n; i++ {
		w.Instrs = append(w.Instrs, Instr{
			IsMem: true, IsLoad: true,
			Addr:          (uint64(i) * stride) % footprint,
			DependsOnLoad: dep,
			Class:         ClassRead,
		})
	}
	return w
}

func TestComputeIPCReachesWidth(t *testing.T) {
	core := New(DefaultConfig(), dramSystem())
	st := core.Run(computeOnly(10000))
	ipc := st.IPC(2.2)
	if ipc < 3.0 || ipc > 4.5 {
		t.Fatalf("compute-only IPC = %.2f, want ~4", ipc)
	}
	if st.Instructions != 10000 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
}

func TestCacheHitsKeepIPCHigh(t *testing.T) {
	core := New(DefaultConfig(), dramSystem())
	// 16KB footprint fits L1: after warmup everything hits.
	st := core.Run(streamLoads(20000, 64, 16<<10, false))
	if st.L1.MissRate() > 0.05 {
		t.Fatalf("L1 miss rate = %.3f, want ~0 for resident footprint", st.L1.MissRate())
	}
	if ipc := st.IPC(2.2); ipc < 1.0 {
		t.Fatalf("L1-resident IPC = %.2f, too low", ipc)
	}
}

func TestDependentMissesSlowerThanIndependent(t *testing.T) {
	// Pointer-chasing (dependent) misses serialize; independent misses
	// overlap via MSHRs.
	big := uint64(128 << 20)
	indep := New(DefaultConfig(), dramSystem()).Run(streamLoads(4000, 8192, big, false))
	dep := New(DefaultConfig(), dramSystem()).Run(streamLoads(4000, 8192, big, true))
	if dep.Cycles <= indep.Cycles*2 {
		t.Fatalf("dependent run (%d cyc) not >> independent (%d cyc)",
			dep.Cycles, indep.Cycles)
	}
}

func TestLLCMissesDriveMemoryTraffic(t *testing.T) {
	core := New(DefaultConfig(), dramSystem())
	st := core.Run(streamLoads(5000, 4096, 256<<20, false))
	if st.MemReads == 0 {
		t.Fatal("no memory reads for an uncacheable footprint")
	}
	if st.LLCMPKI() < 100 {
		t.Fatalf("LLC MPKI = %.1f, want high for streaming misses", st.LLCMPKI())
	}
}

func TestTLBMissesCounted(t *testing.T) {
	core := New(DefaultConfig(), dramSystem())
	// Stride of one page over a large footprint: every access a new page.
	st := core.Run(streamLoads(10000, 4096, 512<<20, false))
	if st.STLB.Misses == 0 || st.Walks == 0 {
		t.Fatalf("no STLB misses/walks: %+v", st.STLB)
	}
	core2 := New(DefaultConfig(), dramSystem())
	st2 := core2.Run(streamLoads(10000, 64, 64<<10, false))
	if st2.Walks > st.Walks/10 {
		t.Fatalf("small footprint walks (%d) not << large (%d)", st2.Walks, st.Walks)
	}
}

func TestStoresGenerateRFOTraffic(t *testing.T) {
	core := New(DefaultConfig(), dramSystem())
	w := &SliceWorkload{}
	for i := 0; i < 3000; i++ {
		w.Instrs = append(w.Instrs, Instr{
			IsMem: true, Addr: uint64(i) * 4096 % (256 << 20), Class: ClassWrite})
	}
	st := core.Run(w)
	if st.MemReads == 0 {
		t.Fatal("cached store misses generated no RFO reads")
	}
}

func TestNTStoresBypassCaches(t *testing.T) {
	core := New(DefaultConfig(), dramSystem())
	w := &SliceWorkload{}
	for i := 0; i < 1000; i++ {
		w.Instrs = append(w.Instrs, Instr{
			IsMem: true, NT: true, Addr: uint64(i) * 64, Class: ClassWrite})
	}
	st := core.Run(w)
	if st.MemWrites < 1000 {
		t.Fatalf("NT stores reached memory %d times, want 1000", st.MemWrites)
	}
	if st.L1.Misses+st.L1.Hits != 0 {
		t.Fatal("NT stores touched the cache hierarchy")
	}
}

func TestFenceSerializes(t *testing.T) {
	sys := vansSystem()
	core := New(DefaultConfig(), sys)
	w := &SliceWorkload{}
	for i := 0; i < 50; i++ {
		w.Instrs = append(w.Instrs,
			Instr{IsMem: true, NT: true, Addr: uint64(i) * 64, Class: ClassWrite},
			Instr{Fence: true})
	}
	st := core.Run(w)
	if st.Fences != 50 {
		t.Fatalf("Fences = %d", st.Fences)
	}
	if !sys.Drained() {
		t.Fatal("system not drained after fenced run")
	}
	// Fenced writes are far slower than unfenced.
	core2 := New(DefaultConfig(), vansSystem())
	w2 := &SliceWorkload{}
	for i := 0; i < 50; i++ {
		w2.Instrs = append(w2.Instrs,
			Instr{IsMem: true, NT: true, Addr: uint64(i) * 64, Class: ClassWrite},
			Instr{})
	}
	st2 := core2.Run(w2)
	if st.Cycles <= st2.Cycles*2 {
		t.Fatalf("fenced run (%d) not >> unfenced (%d)", st.Cycles, st2.Cycles)
	}
}

func TestClassAttribution(t *testing.T) {
	core := New(DefaultConfig(), dramSystem())
	w := &SliceWorkload{}
	// Expensive dependent reads vs cheap compute.
	for i := 0; i < 500; i++ {
		w.Instrs = append(w.Instrs, Instr{
			IsMem: true, IsLoad: true, DependsOnLoad: true,
			Addr:  uint64(i) * 8192 % (128 << 20),
			Class: ClassRead,
		})
		for j := 0; j < 3; j++ {
			w.Instrs = append(w.Instrs, Instr{Class: ClassOther})
		}
	}
	st := core.Run(w)
	cpiRead := float64(st.ClassCycles[ClassRead]) / float64(st.ClassInstrs[ClassRead])
	cpiOther := float64(st.ClassCycles[ClassOther]) / float64(st.ClassInstrs[ClassOther])
	if cpiRead < 4*cpiOther {
		t.Fatalf("read CPI (%.1f) not >> other CPI (%.1f)", cpiRead, cpiOther)
	}
}

// chaseWorkload builds a pointer-chasing traversal with mkpt marks.
func chaseWorkload(nodes, hops int, mkpt bool, seed uint64) *SliceWorkload {
	perm := sim.NewRNG(seed).PermCycle(nodes)
	w := &SliceWorkload{}
	at := 0
	for i := 0; i < hops; i++ {
		next := int(perm[at])
		w.Instrs = append(w.Instrs, Instr{
			IsMem: true, IsLoad: true, DependsOnLoad: true,
			Addr:     uint64(at) * 4096, // one node per page: TLB-hostile
			Mkpt:     mkpt,
			NextAddr: uint64(next) * 4096,
			Class:    ClassRead,
		})
		at = next
	}
	return w
}

func TestPreTranslationReducesTLBMisses(t *testing.T) {
	run := func(enable bool) Stats {
		sys := vans.New(func() vans.Config {
			c := vans.DefaultConfig()
			c.NV.Media.Capacity = 64 << 20
			return c
		}())
		cfg := DefaultConfig()
		// Small STLB so the chase exceeds TLB reach.
		cfg.STLBEntries = 64
		cfg.DTLBEntries = 16
		if enable {
			cfg.RLBEntries = 128
		}
		core := New(cfg, sys)
		if enable {
			core.AttachPreTrans(sys.EnablePreTranslation(nvdimm.PreTransConfig{}))
		}
		// Two traversals of the same ring: the first trains the tables.
		w := chaseWorkload(512, 2048, enable, 7)
		return core.Run(w)
	}
	base := run(false)
	opt := run(true)
	if opt.STLB.Misses >= base.STLB.Misses {
		t.Fatalf("pre-translation STLB misses %d not below baseline %d",
			opt.STLB.Misses, base.STLB.Misses)
	}
	if opt.PreTransHits == 0 {
		t.Fatal("no pre-translation hits recorded")
	}
	if opt.Cycles >= base.Cycles {
		t.Fatalf("pre-translation run (%d cyc) not faster than baseline (%d cyc)",
			opt.Cycles, base.Cycles)
	}
}

func TestRLB(t *testing.T) {
	r := NewRLB(2)
	if _, ok := r.Lookup(0); ok {
		t.Fatal("cold RLB hit")
	}
	r.Insert(0, 10)
	r.Insert(64, 11)
	if pfn, ok := r.Lookup(0); !ok || pfn != 10 {
		t.Fatalf("Lookup = %d,%v", pfn, ok)
	}
	r.Insert(128, 12) // evict FIFO (0)
	if _, ok := r.Lookup(0); ok {
		t.Fatal("FIFO eviction failed")
	}
	if _, ok := r.Lookup(64); !ok {
		t.Fatal("entry 64 lost")
	}
	r.Insert(64, 99) // overwrite in place
	if pfn, _ := r.Lookup(64); pfn != 99 {
		t.Fatal("in-place update failed")
	}
	if r.Lookups() == 0 || r.Hits() == 0 {
		t.Fatal("counters not populated")
	}
}

func TestSliceWorkloadReset(t *testing.T) {
	w := &SliceWorkload{Instrs: []Instr{{}, {}}}
	w.Next()
	w.Next()
	if _, ok := w.Next(); ok {
		t.Fatal("exhausted workload returned an instruction")
	}
	w.Reset()
	if _, ok := w.Next(); !ok {
		t.Fatal("reset failed")
	}
}

// TestNewAllocatesHandful guards the core's setup cost: a fixed handful of
// objects (the core, its token ring and bound completion, each cache with
// its set index, each TLB with its index), however large the caches are —
// line storage waits for the first fill of each set.
func TestNewAllocatesHandful(t *testing.T) {
	sys := dramSystem()
	big := DefaultConfig()
	big.L3.SizeBytes = 1 << 30
	for _, cfg := range []Config{DefaultConfig(), big} {
		if n := testing.AllocsPerRun(10, func() { New(cfg, sys) }); n > 13 {
			t.Fatalf("New with a %d MiB L3 allocates %.0f objects, want at most 13",
				cfg.L3.SizeBytes>>20, n)
		}
	}
}

// TestRunAllocFree checks that a warm core allocates nothing per
// instruction — no completion tokens, requests or closures — on plain DRAM
// and on VANS, with and without fences (each one drains the WPQ and flushes
// the LSQ). The mixed workload replays the same lines each run, so every
// cache set and memory-model structure it needs is built during warm-up.
func TestRunAllocFree(t *testing.T) {
	fenced := mixedWorkload(4000)
	for i := 8; i < len(fenced.Instrs); i += 64 {
		fenced.Instrs[i] = Instr{Fence: true}
	}
	for _, tc := range []struct {
		name string
		sys  mem.System
		w    *SliceWorkload
	}{
		{"dram", dramSystem(), mixedWorkload(4000)},
		{"vans", vansSystem(), mixedWorkload(4000)},
		{"vans-fenced", vansSystem(), fenced},
	} {
		core := New(DefaultConfig(), tc.sys)
		w := tc.w
		for i := 0; i < 3; i++ {
			w.Reset()
			core.Run(w)
		}
		before := core.Stats()
		n := testing.AllocsPerRun(5, func() {
			w.Reset()
			core.Run(w)
		})
		st := core.Stats()
		if st.MemReads == before.MemReads || st.MemWrites == before.MemWrites {
			t.Fatalf("%s: warm runs issued no memory traffic", tc.name)
		}
		if tc.w == fenced && st.Fences == before.Fences {
			t.Fatalf("%s: warm runs issued no fences", tc.name)
		}
		if n != 0 {
			t.Errorf("%s: warm Run of %d instructions allocates %.0f objects, want 0",
				tc.name, len(w.Instrs), n)
		}
	}
}

// stubPreTrans is a DIMM-side pre-translation table with a fixed extra
// latency.
type stubPreTrans struct {
	extra sim.Cycle
	table map[uint64]uint64
}

func (p *stubPreTrans) Lookup(paddr uint64) (uint64, bool) {
	pfn, ok := p.table[paddr&^63]
	return pfn, ok
}
func (p *stubPreTrans) Update(paddr, pfn uint64) { p.table[paddr&^63] = pfn }
func (p *stubPreTrans) ExtraLatency() sim.Cycle  { return p.extra }

// TestMkptRLBMissAddsExtraLatency checks that an mkpt load that misses the
// RLB completes exactly ExtraLatency() after its data, both when the data
// is still in flight at dispatch (a memory miss) and when it is already
// there (an L1 hit behind an earlier load of the same line).
func TestMkptRLBMissAddsExtraLatency(t *testing.T) {
	const extra = 37
	run := func(mkpt, cached bool) sim.Cycle {
		cfg := DefaultConfig()
		cfg.RLBEntries = 8
		core := New(cfg, newIdealMem(300))
		core.AttachPreTrans(&stubPreTrans{extra: extra, table: map[uint64]uint64{}})
		w := &SliceWorkload{}
		if cached {
			w.Instrs = append(w.Instrs, Instr{IsMem: true, IsLoad: true, Addr: 1 << 20, Class: ClassRead})
		}
		w.Instrs = append(w.Instrs, Instr{IsMem: true, IsLoad: true, DependsOnLoad: true,
			Addr: 1 << 20, Mkpt: mkpt, NextAddr: 5 << 20, Class: ClassRead})
		st := core.Run(w)
		if mkpt && (st.MkptMarked != 1 || st.RLBHits != 0) {
			t.Fatalf("mkpt run: marked %d, RLB hits %d; want 1 marked RLB miss", st.MkptMarked, st.RLBHits)
		}
		return st.Cycles
	}
	for _, cached := range []bool{false, true} {
		if plain, marked := run(false, cached), run(true, cached); marked != plain+extra {
			t.Errorf("cached=%v: mkpt load retired at %d, plain at %d; want +%d", cached, marked, plain, extra)
		}
	}
}

// TestMkptEventsScaleWithLoads checks that Pre-translation costs the engine
// a bounded number of events per mkpt load — the memory response and the
// delayed completion — rather than one per cycle a load is in flight.
func TestMkptEventsScaleWithLoads(t *testing.T) {
	const loads = 200
	cfg := DefaultConfig()
	cfg.RLBEntries = 8
	m := newIdealMem(2000)
	core := New(cfg, m)
	core.AttachPreTrans(&stubPreTrans{extra: 37, table: map[uint64]uint64{}})
	st := core.Run(chaseWorkload(4*loads, loads, true, 5))
	if st.MkptMarked != loads || st.RLBHits == loads {
		t.Fatalf("marked %d loads with %d RLB hits; want %d marked, some RLB misses", st.MkptMarked, st.RLBHits, loads)
	}
	if fired := m.eng.Fired(); fired > 2*loads {
		t.Fatalf("%d mkpt loads over %d cycles fired %d events, want at most %d",
			loads, st.Cycles, fired, 2*loads)
	}
}

// gateSystem refuses every request until its one pending event opens the
// gate, then accepts each with a fixed latency, logging the accepted IDs.
type gateSystem struct {
	eng      *sim.Engine
	open     bool
	accepted []uint64
}

func (g *gateSystem) Engine() *sim.Engine    { return g.eng }
func (g *gateSystem) CyclesPerNano() float64 { return 1 }
func (g *gateSystem) Drained() bool          { return true }

func (g *gateSystem) Submit(r *mem.Request) bool {
	if !g.open {
		return false
	}
	g.accepted = append(g.accepted, r.ID)
	r.Issued = g.eng.Now()
	g.eng.After(20, func() { r.Complete(g.eng.Now()) })
	return true
}

// TestSubmitRetryOffersAcceptedRequestOnce: a store refused until the
// engine's last pending event frees the slot is accepted exactly once. The
// retry used to offer it again inside its empty-engine check and, that
// offer accepted, once more in the loop condition.
func TestSubmitRetryOffersAcceptedRequestOnce(t *testing.T) {
	g := &gateSystem{eng: sim.NewEngine()}
	// Far past the store's issue cycle, so the core's RunUntil to the
	// issue cycle leaves it pending and the first offer is refused.
	g.eng.Schedule(1_000_000, func() { g.open = true })
	core := New(DefaultConfig(), g)
	st := core.Run(&SliceWorkload{Instrs: []Instr{
		{IsMem: true, NT: true, Addr: 4096, Class: ClassWrite}}})
	if len(g.accepted) != 1 || st.MemWrites != 1 {
		t.Fatalf("one NT store: system accepted IDs %v, MemWrites %d; want one acceptance",
			g.accepted, st.MemWrites)
	}
	if g.eng.Pending() != 0 {
		t.Fatalf("%d events pending after the run, want 0", g.eng.Pending())
	}
}

// lossySystem accepts every request and never completes one: a memory
// system that lost its completions.
type lossySystem struct{ eng *sim.Engine }

func (l *lossySystem) Engine() *sim.Engine      { return l.eng }
func (l *lossySystem) CyclesPerNano() float64   { return 1 }
func (l *lossySystem) Drained() bool            { return true }
func (l *lossySystem) Submit(*mem.Request) bool { return true }

// TestDryEngineFailsLoudly: a core whose memory system never completes a
// request must panic in each loop that waits on the engine, not spin on an
// engine with no event left. One NT store more than the miss slots stalls
// the issue in waitMSHR. A single cached store that misses leaves its RFO
// read, which no instruction waits on, to Run's final drain (an NT store's
// own completion is awaited earlier, at retirement). The core runs in a
// goroutine, so a loop that spins fails the test at its deadline instead
// of hanging it.
func TestDryEngineFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stores int
		nt     bool
		want   string
	}{
		{"waitMSHR", DefaultConfig().MSHRs + 1, true, "waiting for a miss slot"},
		{"final-drain", 1, false, "draining outstanding requests"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &SliceWorkload{}
			for i := 0; i < tc.stores; i++ {
				w.Instrs = append(w.Instrs, Instr{IsMem: true, NT: tc.nt, Addr: uint64(i) * 64, Class: ClassWrite})
			}
			core := New(DefaultConfig(), &lossySystem{eng: sim.NewEngine()})
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				core.Run(w)
			}()
			select {
			case v := <-got:
				if msg, _ := v.(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("Run ended with %v, want a panic naming %q", v, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run still spinning after 10 s on an engine with no pending event")
			}
		})
	}
}
