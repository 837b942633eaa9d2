package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestConfigSets(t *testing.T) {
	c := Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if c.Sets() != 64 {
		t.Fatalf("Sets = %d, want 64", c.Sets())
	}
	tiny := Config{SizeBytes: 64, Ways: 8, LineBytes: 64}
	if tiny.Sets() != 1 {
		t.Fatalf("tiny Sets = %d, want 1", tiny.Sets())
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	if c.Access(0, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0, false)
	if !c.Access(0, false) {
		t.Fatal("filled line missed")
	}
	if !c.Access(63, false) {
		t.Fatal("same line different offset missed")
	}
	if c.Access(64, false) {
		t.Fatal("next line hit spuriously")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 2-way, map three lines to the same set.
	c := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64}) // 2 sets
	setStride := uint64(128)                                 // lines 0, 128, 256 share set 0
	c.Fill(0, false)
	c.Fill(setStride, false)
	c.Access(0, false) // 0 most recent
	v, ev := c.Fill(2*setStride, false)
	if !ev || v.Addr != setStride {
		t.Fatalf("victim = %+v (%v), want addr %d", v, ev, setStride)
	}
	if !c.Peek(0) || !c.Peek(2*setStride) || c.Peek(setStride) {
		t.Fatal("residency wrong after eviction")
	}
}

func TestDirtyWriteBack(t *testing.T) {
	c := New(Config{SizeBytes: 128, Ways: 1, LineBytes: 64}) // 2 sets direct-mapped
	c.Fill(0, false)
	c.Access(0, true) // dirty it
	v, ev := c.Fill(128, false)
	if !ev || !v.Dirty || v.Addr != 0 {
		t.Fatalf("dirty eviction = %+v (%v)", v, ev)
	}
	if c.Stats().WriteBacks != 1 {
		t.Fatalf("WriteBacks = %d", c.Stats().WriteBacks)
	}
}

func TestFillDirtyFlag(t *testing.T) {
	c := New(Config{SizeBytes: 128, Ways: 1, LineBytes: 64})
	c.Fill(0, true) // write-allocate store miss
	v, ev := c.Fill(128, false)
	if !ev || !v.Dirty {
		t.Fatalf("write-allocated line not dirty on eviction: %+v %v", v, ev)
	}
}

func TestDuplicateFillRefreshes(t *testing.T) {
	c := New(Config{SizeBytes: 128, Ways: 2, LineBytes: 64}) // 1 set, 2 ways
	c.Fill(0, false)
	c.Fill(64, false)
	c.Fill(0, true) // duplicate: refresh + dirty
	v, ev := c.Fill(128, false)
	if !ev || v.Addr != 64 {
		t.Fatalf("victim = %+v, want 64 (0 was refreshed)", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	c.Fill(0, false)
	c.Access(0, true)
	dirty, present := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v", dirty, present)
	}
	if c.Peek(0) {
		t.Fatal("line resident after invalidate")
	}
	if _, present := c.Invalidate(0); present {
		t.Fatal("double invalidate reported present")
	}
}

func TestVictimAddressRoundTrip(t *testing.T) {
	// The evicted address must map back to the same set/tag.
	cfg := Config{SizeBytes: 4096, Ways: 2, LineBytes: 64}
	f := func(addrRaw uint32) bool {
		c := New(cfg)
		addr := uint64(addrRaw) &^ 63
		c.Fill(addr, false)
		// Fill the same set with two more conflicting lines.
		stride := cfg.Sets() * cfg.LineBytes
		c.Fill(addr+stride, false)
		v, ev := c.Fill(addr+2*stride, false)
		if !ev {
			return false
		}
		return v.Addr == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity, and a filled line hits until
// evicted.
func TestCacheInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		c := New(Config{SizeBytes: 2048, Ways: 4, LineBytes: 64})
		resident := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			addr := rng.Uint64n(1<<14) &^ 63
			if c.Access(addr, rng.Intn(2) == 0) != resident[addr] {
				return false
			}
			if !resident[addr] {
				v, ev := c.Fill(addr, false)
				resident[addr] = true
				if ev {
					if !resident[v.Addr] {
						return false // evicted something not resident
					}
					delete(resident, v.Addr)
				}
			}
			if len(resident) > 32 { // 2048/64 lines capacity
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4, 2, 4096)
	if tlb.Lookup(0) {
		t.Fatal("cold TLB hit")
	}
	tlb.Insert(0)
	if !tlb.Lookup(100) { // same page
		t.Fatal("same-page lookup missed")
	}
	if tlb.Lookup(4096) {
		t.Fatal("next page hit")
	}
	if !tlb.Resident(0) || tlb.Resident(8192) {
		t.Fatal("Resident wrong")
	}
	if tlb.PageSize() != 4096 {
		t.Fatal("PageSize")
	}
	st := tlb.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("TLB stats = %+v", st)
	}
}

func TestTLBCapacity(t *testing.T) {
	tlb := NewTLB(4, 4, 4096)
	for p := uint64(0); p < 5; p++ {
		tlb.Insert(p * 4096)
	}
	hits := 0
	for p := uint64(0); p < 5; p++ {
		if tlb.Resident(p * 4096) {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("TLB holds %d entries, want 4", hits)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty miss rate")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("MissRate = %v", s.MissRate())
	}
}

func TestResetStats(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Misses != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// refCache is the cache as it was before sets were built lazily: every set
// allocated up front as its own slice. TestCacheMatchesReference runs it
// beside Cache as the oracle.
type refCache struct {
	cfg   Config
	sets  [][]line
	nsets uint64
	tick  uint64
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	n := cfg.Sets()
	sets := make([][]line, n)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &refCache{cfg: cfg, sets: sets, nsets: n}
}

func (c *refCache) index(addr uint64) (uint64, uint64) {
	block := addr / c.cfg.LineBytes
	return block % c.nsets, block / c.nsets
}

func (c *refCache) Access(addr uint64, write bool) bool {
	si, tag := c.index(addr)
	set := c.sets[si]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.tick++
			set[i].lastUse = c.tick
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Peek(addr uint64) bool {
	si, tag := c.index(addr)
	for _, l := range c.sets[si] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64, dirty bool) (v Victim, evicted bool) {
	si, tag := c.index(addr)
	set := c.sets[si]
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.tick
			if dirty {
				set[i].dirty = true
			}
			return Victim{}, false
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto install
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	{
		old := set[victim]
		v = Victim{Addr: (old.tag*c.nsets + si) * c.cfg.LineBytes, Dirty: old.dirty}
		evicted = true
		c.stats.Evictions++
		if old.dirty {
			c.stats.WriteBacks++
		}
	}
install:
	set[victim] = line{tag: tag, valid: true, dirty: dirty, lastUse: c.tick}
	return v, evicted
}

func (c *refCache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	si, tag := c.index(addr)
	set := c.sets[si]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			wasDirty = set[i].dirty
			set[i] = line{}
			return wasDirty, true
		}
	}
	return false, false
}

// TestCacheMatchesReference drives Cache and the up-front reference with the
// same random operations and requires every result and Stats to agree. The
// shapes cover the CPU's caches and TLBs (a 12-way STLB with LineBytes 1),
// a set count that leaves the last storage chunk short, sets too wide for
// more than one per chunk, direct-mapped and single-set caches. Addresses
// span a few capacities, so sets are built at scattered times, conflict
// and evict.
func TestCacheMatchesReference(t *testing.T) {
	shapes := []Config{
		{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64},
		{SizeBytes: 1536, Ways: 12, LineBytes: 1},
		{SizeBytes: 64, Ways: 4, LineBytes: 1},
		{SizeBytes: 200 * 16 * 64, Ways: 16, LineBytes: 64},
		{SizeBytes: 3 * 1500 * 64, Ways: 1500, LineBytes: 64},
		{SizeBytes: 4096, Ways: 1, LineBytes: 64},
		{SizeBytes: 128, Ways: 2, LineBytes: 64},
	}
	for si, cfg := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := sim.NewRNG(seed*131 + uint64(si))
			c, ref := New(cfg), newRefCache(cfg)
			span := 3 * cfg.SizeBytes
			for op := 0; op < 20000; op++ {
				addr := rng.Uint64n(span)
				switch k := rng.Intn(10); {
				case k < 4:
					w := rng.Intn(2) == 0
					if got, want := c.Access(addr, w), ref.Access(addr, w); got != want {
						t.Fatalf("%+v seed %d op %d: Access(%d,%v) = %v, reference %v", cfg, seed, op, addr, w, got, want)
					}
				case k < 7:
					d := rng.Intn(4) == 0
					v, ev := c.Fill(addr, d)
					rv, rev := ref.Fill(addr, d)
					if v != rv || ev != rev {
						t.Fatalf("%+v seed %d op %d: Fill(%d,%v) = %+v,%v, reference %+v,%v", cfg, seed, op, addr, d, v, ev, rv, rev)
					}
				case k < 8:
					if got, want := c.Peek(addr), ref.Peek(addr); got != want {
						t.Fatalf("%+v seed %d op %d: Peek(%d) = %v, reference %v", cfg, seed, op, addr, got, want)
					}
				case k < 9:
					d, p := c.Invalidate(addr)
					rd, rp := ref.Invalidate(addr)
					if d != rd || p != rp {
						t.Fatalf("%+v seed %d op %d: Invalidate(%d) = %v,%v, reference %v,%v", cfg, seed, op, addr, d, p, rd, rp)
					}
				default:
					if rng.Intn(50) == 0 {
						c.ResetStats()
						ref.stats = Stats{}
					}
				}
				if c.Stats() != ref.stats {
					t.Fatalf("%+v seed %d op %d: Stats %+v, reference %+v", cfg, seed, op, c.Stats(), ref.stats)
				}
			}
		}
	}
}

// TestCacheBuildsSetsOnFirstFill checks that lookups on untouched sets
// allocate nothing and that a cache only grows storage when Fill reaches a
// new set.
func TestCacheBuildsSetsOnFirstFill(t *testing.T) {
	c := New(Config{SizeBytes: 32 << 20, Ways: 16, LineBytes: 64})
	if n := testing.AllocsPerRun(100, func() {
		c.Access(1<<20, false)
		c.Peek(2 << 20)
		c.Invalidate(3 << 20)
	}); n != 0 {
		t.Fatalf("lookups on never-filled sets allocate %.1f objects", n)
	}
	c.Fill(0, false)
	if n := testing.AllocsPerRun(100, func() {
		c.Fill(64*c.nsets, false) // same set, another tag
		c.Access(0, true)
	}); n != 0 {
		t.Fatalf("fills into a built set allocate %.1f objects", n)
	}
	if c.built != 1 || len(c.chunks) != 1 {
		t.Fatalf("built %d sets in %d chunks, want 1 in 1", c.built, len(c.chunks))
	}
	if n := testing.AllocsPerRun(10, func() {
		New(Config{SizeBytes: 32 << 20, Ways: 16, LineBytes: 64})
	}); n > 2 {
		t.Fatalf("New allocates %.0f objects, want the cache and its index only", n)
	}
}
