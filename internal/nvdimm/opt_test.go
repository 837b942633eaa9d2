package nvdimm

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestLazyCacheAbsorbsHotWrites(t *testing.T) {
	cfg := smallConfig()
	cfg.WearThreshold = 1 << 60 // no migrations in this test
	base := NewSystem(cfg, 1)
	opt := NewSystem(cfg, 1)
	lc := opt.D.EnableLazyCache(LazyCacheConfig{HotThreshold: 8})

	hammer := func(sys *System) uint64 {
		d := mem.NewDriver(sys)
		for i := 0; i < 400; i++ {
			d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: uint64(i%4) * 64, Size: 64}})
			d.Fence()
		}
		return sys.D.Media().Stats().Writes
	}
	baseWrites := hammer(base)
	optWrites := hammer(opt)
	if optWrites >= baseWrites/2 {
		t.Fatalf("lazy cache media writes %d not well below baseline %d", optWrites, baseWrites)
	}
	st := lc.Stats()
	if st.WriteHits == 0 || st.Promotions == 0 {
		t.Fatalf("lazy cache stats = %+v", st)
	}
}

func TestLazyCacheServesReads(t *testing.T) {
	cfg := smallConfig()
	cfg.WearThreshold = 1 << 60
	sys := NewSystem(cfg, 1)
	lc := sys.D.EnableLazyCache(LazyCacheConfig{HotThreshold: 4})
	d := mem.NewDriver(sys)
	// Make block 0 hot.
	for i := 0; i < 50; i++ {
		d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 0, Size: 64}})
		d.Fence()
	}
	if lc.Stats().WriteHits == 0 {
		t.Fatal("block never admitted")
	}
	// Evict it from the RMW buffer by reading far more than its capacity.
	var accs []mem.Access
	for i := 0; i < 2*cfg.RMWEntries; i++ {
		accs = append(accs, mem.Access{Op: mem.OpRead, Addr: 1<<20 + uint64(i)*256, Size: 64})
	}
	d.RunChain(accs)
	fast := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 0, Size: 64}})[0]
	slow := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 2 << 20, Size: 64}})[0]
	if fast >= slow {
		t.Fatalf("lazy-cached read (%d) not faster than cold read (%d)", fast, slow)
	}
	if lc.Stats().ReadHits == 0 {
		t.Fatal("no lazy cache read hits")
	}
}

func TestLazyCacheReducesMigrations(t *testing.T) {
	run := func(enable bool) uint64 {
		cfg := smallConfig()
		cfg.WearThreshold = 30
		sys := NewSystem(cfg, 1)
		if enable {
			sys.D.EnableLazyCache(LazyCacheConfig{HotThreshold: 8})
		}
		d := mem.NewDriver(sys)
		for i := 0; i < 200; i++ {
			d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 4096, Size: 64}})
			d.Fence()
		}
		return sys.D.Stats().Migrations
	}
	base := run(false)
	opt := run(true)
	if base == 0 {
		t.Fatal("baseline has no migrations")
	}
	if opt >= base {
		t.Fatalf("lazy cache migrations %d not below baseline %d", opt, base)
	}
}

// TestLazyCacheDeterministic feeds two caches one seeded stream of writes
// and reads over 96 blocks, enough to overflow the WLB again and again: they
// must answer every probe alike and end with the same statistics. A bound
// that picks its victim in map order, or probes with touching lookups, fails
// this.
func TestLazyCacheDeterministic(t *testing.T) {
	a := NewLazyCache(LazyCacheConfig{HotThreshold: 2})
	b := NewLazyCache(LazyCacheConfig{HotThreshold: 2})
	rng := sim.NewRNG(5)
	for step := 0; step < 20000; step++ {
		blk := rng.Uint64n(96) * 256
		if rng.Intn(4) == 0 {
			la, ha := a.ReadProbe(blk)
			lb, hb := b.ReadProbe(blk)
			if la != lb || ha != hb {
				t.Fatalf("step %d: ReadProbe(%#x) = %d, %v and %d, %v", step, blk, la, ha, lb, hb)
			}
		} else if ha, hb := a.WriteProbe(blk), b.WriteProbe(blk); ha != hb {
			t.Fatalf("step %d: WriteProbe(%#x) = %v and %v", step, blk, ha, hb)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats differ: %+v and %+v", sa, sb)
	}
	if a.Stats().WriteHits == 0 || a.Stats().ReadHits == 0 {
		t.Fatalf("stream exercised no hits: %+v", a.Stats())
	}
}

// TestLazyCacheWLBBoundKeepsRecency admits 33 blocks, highest address
// first, into a cache whose levels hold 16 lines each: the last admit
// overflows the 32-entry WLB while the lowest-addressed tracked blocks are
// still cached. The bound must drop the lowest-addressed block neither level
// holds, and leave both levels exactly as the admit's own inserts do, every
// line in the same recency order with the same stamp.
func TestLazyCacheWLBBoundKeepsRecency(t *testing.T) {
	lc := NewLazyCache(LazyCacheConfig{HotThreshold: 1})
	const n = 33
	block := func(k int) uint64 { return uint64(n-k) * 256 }
	for k := 0; k < n-1; k++ {
		lc.WriteProbe(block(k))
	}
	if len(lc.wlb) != n-1 {
		t.Fatalf("WLB tracks %d blocks before the last admit, want %d", len(lc.wlb), n-1)
	}
	// Replay the last admit's inserts on copies of both levels.
	replica := func(l *lzLevel) *lzLevel {
		r := &lzLevel{}
		r.init(uint64(l.lines.Cap())*l.block, l.block)
		if err := r.lines.Restore(l.lines.Entries(nil), l.lines.Tick()); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := replica(&lc.l1), replica(&lc.l2)
	last := block(n - 1)
	if v, ev := r1.insert(last); ev {
		r2.insert(v)
	}
	r2.insert(last)

	lc.WriteProbe(last)
	for name, p := range map[string][2]*lzLevel{"L1": {&lc.l1, r1}, "L2": {&lc.l2, r2}} {
		got, want := p[0].lines.Entries(nil), p[1].lines.Entries(nil)
		if !slices.Equal(got, want) || p[0].lines.Tick() != p[1].lines.Tick() {
			t.Errorf("%s after the bound: %v (tick %d), want %v (tick %d)",
				name, got, p[0].lines.Tick(), want, p[1].lines.Tick())
		}
	}
	var drop uint64
	found := false
	for k := 0; k < n; k++ {
		if b := block(k); !r1.contains(b) && !r2.contains(b) && (!found || b < drop) {
			drop, found = b, true
		}
	}
	if !found {
		t.Fatal("every tracked block is still cached; the bound has nothing to drop")
	}
	if len(lc.wlb) != n-1 || lc.wlb[drop] || !lc.wlb[last] {
		t.Fatalf("WLB after the bound: %d blocks, holds %#x: %v, holds %#x: %v; want %d, %#x dropped",
			len(lc.wlb), drop, lc.wlb[drop], last, lc.wlb[last], n-1, drop)
	}
}

func TestPreTransTable(t *testing.T) {
	p := NewPreTransTable(PreTransConfig{TableBytes: 32, EntryBytes: 8})
	if _, ok := p.Lookup(0); ok {
		t.Fatal("cold hit")
	}
	p.Update(0, 5)
	if pfn, ok := p.Lookup(0); !ok || pfn != 5 {
		t.Fatalf("lookup = %d,%v", pfn, ok)
	}
	// Stale update.
	p.Update(0, 6)
	if p.Stats().Stale != 1 {
		t.Fatalf("stale = %d", p.Stats().Stale)
	}
	// FIFO eviction at capacity 4.
	for i := uint64(1); i <= 4; i++ {
		p.Update(i*64, i)
	}
	if _, ok := p.Lookup(0); ok {
		t.Fatal("capacity eviction failed")
	}
	if p.ExtraLatency() == 0 {
		t.Fatal("zero extra latency")
	}
}

func TestDefaultLazyCacheConfigMatchesPaper(t *testing.T) {
	c := DefaultLazyCacheConfig()
	if c.LZ1Bytes != 1<<10 || c.LZ2Bytes != 2<<10 {
		t.Fatalf("lazy cache sizes = %d/%d, want 1KB/2KB", c.LZ1Bytes, c.LZ2Bytes)
	}
	if c.LZ1Block != 64 || c.LZ2Block != 128 {
		t.Fatalf("lazy cache blocks = %d/%d, want 64/128", c.LZ1Block, c.LZ2Block)
	}
}
