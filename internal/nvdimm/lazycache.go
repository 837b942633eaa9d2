package nvdimm

import (
	"repro/internal/dram"
	"repro/internal/sim"
)

// LazyCacheConfig parameterizes the Lazy cache optimization (§V-C): a small
// two-level inclusive write cache (LZ1/LZ2) in front of the AIT that absorbs
// writes to frequently worn blocks, plus a Write Lookaside Buffer holding
// the cached addresses. Persistence is covered by the existing ADR domain
// because the total capacity (3KB by default) is far below the WPQ-protected
// energy budget.
type LazyCacheConfig struct {
	// LZ1Bytes / LZ1Block: first level (1KB of 64B lines by default).
	LZ1Bytes uint64
	LZ1Block uint64
	// LZ2Bytes / LZ2Block: second level (2KB of 128B lines by default).
	LZ2Bytes uint64
	LZ2Block uint64
	// HotThreshold is the wear-record count at which the AIT marks a block
	// hot and directs the Lazy cache to absorb its writes.
	HotThreshold uint64
	// HitNs is the cache access latency.
	HitNs float64
}

// DefaultLazyCacheConfig returns the paper's evaluated configuration: 1KB L1
// + 2KB L2 (3KB total).
func DefaultLazyCacheConfig() LazyCacheConfig {
	return LazyCacheConfig{
		LZ1Bytes: 1 << 10, LZ1Block: 64,
		LZ2Bytes: 2 << 10, LZ2Block: 128,
		HotThreshold: 64,
		HitNs:        10,
	}
}

// lzLevel is one level of the Lazy cache: fully associative, LRU, lines of
// block bytes.
type lzLevel struct {
	lines sim.LRU[struct{}]
	block uint64
}

func (l *lzLevel) init(bytes, block uint64) {
	l.lines.Init(int(bytes / block))
	l.block = block
}

func (l *lzLevel) align(addr uint64) uint64 { return addr - addr%l.block }

// lookup probes for addr's line, touching it on a hit.
func (l *lzLevel) lookup(addr uint64) bool {
	_, ok := l.lines.Get(l.align(addr))
	return ok
}

// contains probes for addr's line without touching it.
func (l *lzLevel) contains(addr uint64) bool { return l.lines.Contains(l.align(addr)) }

func (l *lzLevel) insert(addr uint64) (victim uint64, evicted bool) {
	victim, _, evicted = l.lines.Put(l.align(addr), struct{}{})
	return victim, evicted
}

// LazyCacheStats counts Lazy cache activity.
type LazyCacheStats struct {
	WriteHits   uint64 // writes absorbed (wear avoided)
	ReadHits    uint64
	Promotions  uint64 // blocks marked hot by the AIT wear records
	WLBEntries  int
	L1Occupancy int
	L2Occupancy int
}

// LazyCache implements the optimization. The WLB tracks which block
// addresses are currently cached; the AIT wear records (writes since last
// migration reset, tracked per combine block here) drive promotion.
type LazyCache struct {
	cfg LazyCacheConfig
	l1  lzLevel
	l2  lzLevel
	// wlb is the Write Lookaside Buffer: the set of cached combine blocks.
	wlb map[uint64]bool
	// hotness counts recent writes per combine block (reusing the AIT wear
	// record, per the paper's design).
	hotness map[uint64]uint64

	writeLat sim.Cycle
	stats    LazyCacheStats
}

// NewLazyCache builds the optimization with cfg (zero fields defaulted).
func NewLazyCache(cfg LazyCacheConfig) *LazyCache {
	def := DefaultLazyCacheConfig()
	if cfg.LZ1Bytes == 0 {
		cfg.LZ1Bytes, cfg.LZ1Block = def.LZ1Bytes, def.LZ1Block
	}
	if cfg.LZ2Bytes == 0 {
		cfg.LZ2Bytes, cfg.LZ2Block = def.LZ2Bytes, def.LZ2Block
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = def.HotThreshold
	}
	if cfg.HitNs == 0 {
		cfg.HitNs = def.HitNs
	}
	lc := &LazyCache{
		cfg:      cfg,
		wlb:      make(map[uint64]bool),
		hotness:  make(map[uint64]uint64),
		writeLat: dram.NsToCycles(cfg.HitNs),
	}
	lc.l1.init(cfg.LZ1Bytes, cfg.LZ1Block)
	lc.l2.init(cfg.LZ2Bytes, cfg.LZ2Block)
	return lc
}

// EnableLazyCache attaches the Lazy cache to a DIMM.
func (d *DIMM) EnableLazyCache(cfg LazyCacheConfig) *LazyCache {
	d.lazy = NewLazyCache(cfg)
	return d.lazy
}

// Lazy returns the attached Lazy cache (nil when disabled).
func (d *DIMM) Lazy() *LazyCache { return d.lazy }

// Stats returns a snapshot of activity counters.
func (lc *LazyCache) Stats() LazyCacheStats {
	s := lc.stats
	s.WLBEntries = len(lc.wlb)
	s.L1Occupancy = lc.l1.lines.Len()
	s.L2Occupancy = lc.l2.lines.Len()
	return s
}

// WriteProbe is called with each combined write block. It returns true when
// the Lazy cache absorbs the write (no AIT/media traffic). The hotness
// record promotes blocks that are written repeatedly, mirroring the paper's
// reuse of AIT wear records during migration.
func (lc *LazyCache) WriteProbe(block uint64) bool {
	if lc.wlb[block] {
		// Inclusive two-level update: L1 insert, L1 victims go to L2.
		if v, ev := lc.l1.insert(block); ev {
			lc.l2.insert(v)
		}
		lc.l2.insert(block)
		lc.stats.WriteHits++
		return true
	}
	lc.hotness[block]++
	if lc.hotness[block] >= lc.cfg.HotThreshold {
		lc.admit(block)
	}
	return false
}

// admit starts caching block.
func (lc *LazyCache) admit(block uint64) {
	lc.wlb[block] = true
	lc.stats.Promotions++
	delete(lc.hotness, block)
	if v, ev := lc.l1.insert(block); ev {
		lc.l2.insert(v)
	}
	lc.l2.insert(block)
	// Bound the WLB to the cache capacity: stop tracking the lowest-addressed
	// block that fell out of both levels. The choice depends on the tracked
	// set alone, not on map order, and the probes do not touch, so the bound
	// never reorders either level.
	if len(lc.wlb) > lc.l1.lines.Cap()+lc.l2.lines.Cap() {
		drop, found := uint64(0), false
		for a := range lc.wlb {
			if (!found || a < drop) && !lc.l1.contains(a) && !lc.l2.contains(a) {
				drop, found = a, true
			}
		}
		if found {
			delete(lc.wlb, drop)
		}
	}
}

// ReadProbe serves reads of cached blocks. It returns the access latency and
// whether the block was present.
func (lc *LazyCache) ReadProbe(block uint64) (sim.Cycle, bool) {
	if !lc.wlb[block] {
		return 0, false
	}
	if lc.l1.lookup(block) || lc.l2.lookup(block) {
		lc.stats.ReadHits++
		return lc.writeLat, true
	}
	return 0, false
}
