// Package cache provides the CPU-side cache and TLB structures of the
// full-system substrate (the gem5 stand-in): set-associative LRU caches with
// write-back write-allocate semantics, and TLBs built on the same structure.
// Timing is orchestrated by internal/cpu; these types are pure state.
package cache

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Ways is the associativity.
	Ways int
	// LineBytes is the line (block) size.
	LineBytes uint64
}

// Sets returns the set count.
func (c Config) Sets() uint64 {
	lines := c.SizeBytes / c.LineBytes
	sets := lines / uint64(c.Ways)
	if sets == 0 {
		sets = 1
	}
	return sets
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
}

// MissRate returns misses / (hits + misses).
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// chunkLines bounds one chunk of line storage (24 KiB of lines).
const chunkLines = 1024

// Cache is a set-associative write-back cache. Addresses are physical.
//
// A set gets its line storage the first time Fill touches it, so a cache
// costs memory in proportion to the sets a run touches. slot is the per-set
// index: 1 + the set's position in the storage, or 0 for a set never filled
// (Access, Peek and Invalidate report a miss there). Positions are handed
// out in first-fill order and carved from chunks of 1<<shift sets, which are
// never copied as the cache grows; only the last chunk may be shorter.
type Cache struct {
	cfg    Config
	slot   []uint32
	chunks [][]line
	shift  uint
	built  uint32
	nsets  uint64
	tick   uint64
	stats  Stats
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	c := new(Cache)
	c.init(cfg)
	return c
}

// init builds the cache in place (TLBs embed theirs).
func (c *Cache) init(cfg Config) {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 64
	}
	if cfg.Ways == 0 {
		cfg.Ways = 8
	}
	n := cfg.Sets()
	shift := uint(0)
	for 2<<shift*cfg.Ways <= chunkLines {
		shift++
	}
	*c = Cache{cfg: cfg, slot: make([]uint32, n), shift: shift, nsets: n}
}

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (warm-up support).
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	block := addr / c.cfg.LineBytes
	return block % c.nsets, block / c.nsets
}

// lines returns the ways of set si, nil if the set was never filled.
func (c *Cache) lines(si uint64) []line {
	s := c.slot[si]
	if s == 0 {
		return nil
	}
	return c.at(s - 1)
}

// at returns the ways stored at position pos.
func (c *Cache) at(pos uint32) []line {
	off := int(pos&(1<<c.shift-1)) * c.cfg.Ways
	return c.chunks[pos>>c.shift][off : off+c.cfg.Ways]
}

// build gives set si the next storage position, adding a chunk when the
// last one is full, and returns its (all invalid) ways.
func (c *Cache) build(si uint64) []line {
	pos := c.built
	c.built++
	c.slot[si] = pos + 1
	if k := int(pos >> c.shift); k == len(c.chunks) {
		sets := uint64(1) << c.shift
		if rest := c.nsets - uint64(k)<<c.shift; rest < sets {
			sets = rest
		}
		c.chunks = append(c.chunks, make([]line, sets*uint64(c.cfg.Ways)))
	}
	return c.at(pos)
}

// Access looks up addr; write marks the line dirty on hit. It returns hit.
func (c *Cache) Access(addr uint64, write bool) bool {
	si, tag := c.index(addr)
	set := c.lines(si)
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

// Peek reports residency without LRU or stat effects.
func (c *Cache) Peek(addr uint64) bool {
	si, tag := c.index(addr)
	for _, l := range c.lines(si) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Fill installs the line containing addr (after a miss), returning the
// displaced victim if any. dirty pre-marks the new line (write-allocate
// store miss).
func (c *Cache) Fill(addr uint64, dirty bool) (v Victim, evicted bool) {
	si, tag := c.index(addr)
	set := c.lines(si)
	if set == nil {
		set = c.build(si)
	}
	c.tick++
	// Already resident (duplicate fill): refresh only.
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

// Invalidate removes the line containing addr, returning whether it was
// dirty (inclusive-hierarchy back-invalidation).
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	si, tag := c.index(addr)
	set := c.lines(si)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			wasDirty = set[i].dirty
			set[i] = line{}
			return wasDirty, true
		}
	}
	return false, false
}

// TLB is a translation lookaside buffer: a cache keyed by page number. The
// simulation uses physical addressing, so the TLB tracks only hit/miss
// behavior and the prefill effect of Pre-translation.
type TLB struct {
	c        Cache
	pageSize uint64
}

// NewTLB builds a TLB with the given entry count, associativity, and page
// size.
func NewTLB(entries, ways int, pageSize uint64) *TLB {
	t := &TLB{pageSize: pageSize}
	t.c.init(Config{SizeBytes: uint64(entries), Ways: ways, LineBytes: 1})
	return t
}

// Lookup probes the translation for addr.
func (t *TLB) Lookup(addr uint64) bool {
	return t.c.Access(addr/t.pageSize, false)
}

// Insert installs the translation for addr (after a walk, or via RLB
// prefill from Pre-translation).
func (t *TLB) Insert(addr uint64) {
	t.c.Fill(addr/t.pageSize, false)
}

// Resident reports presence without side effects.
func (t *TLB) Resident(addr uint64) bool {
	return t.c.Peek(addr / t.pageSize)
}

// Stats returns the hit/miss counters.
func (t *TLB) Stats() Stats { return t.c.Stats() }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.c.ResetStats() }

// PageSize returns the translation granularity.
func (t *TLB) PageSize() uint64 { return t.pageSize }
