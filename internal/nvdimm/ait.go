package nvdimm

// identLeafSize is the translation-table paging granularity: 512 entries
// (one 4KB page of uint64s).
const identLeafSize = 512

// identPages is a paged array over [0, n) whose default value is the
// identity (entry i reads as i). Leaves are allocated — and filled with the
// identity — only when a mapping inside them is first disturbed, and the
// directory of leaves only with its first leaf, so a table no migration has
// touched costs only its header.
type identPages struct {
	dirLen int        // number of leaves covering [0, n)
	leaves [][]uint64 // nil until a leaf exists; then dirLen entries
}

func newIdentPages(n uint64) *identPages {
	return &identPages{dirLen: int((n + identLeafSize - 1) / identLeafSize)}
}

func (p *identPages) get(i uint64) uint64 {
	if p.leaves != nil {
		if l := p.leaves[i/identLeafSize]; l != nil {
			return l[i%identLeafSize]
		}
	}
	return i
}

// dir returns the leaf directory, allocating it on first use.
func (p *identPages) dir() [][]uint64 {
	if p.leaves == nil {
		p.leaves = make([][]uint64, p.dirLen)
	}
	return p.leaves
}

func (p *identPages) set(i, v uint64) {
	li := i / identLeafSize
	var l []uint64
	if p.leaves != nil {
		l = p.leaves[li]
	}
	if l == nil {
		if v == i {
			return // already the identity
		}
		l = make([]uint64, identLeafSize)
		base := li * identLeafSize
		for j := range l {
			l[j] = base + uint64(j)
		}
		p.dir()[li] = l
	}
	l[i%identLeafSize] = v
}

// adoptFrom deep-copies old's allocated leaves into p.
func (p *identPages) adoptFrom(old *identPages) {
	for li, l := range old.leaves {
		if l == nil {
			continue
		}
		cp := make([]uint64, len(l))
		copy(cp, l)
		p.dir()[li] = cp
	}
}

// mapped counts non-identity entries (test/diagnostic aid).
func (p *identPages) mapped() int {
	n := 0
	for li, l := range p.leaves {
		base := uint64(li) * identLeafSize
		for j, v := range l {
			if v != base+uint64(j) {
				n++
			}
		}
	}
	return n
}

// Translator is the AIT translation table state: a bijective mapping from
// CPU-visible 4KB pages to media 4KB frames. It starts as the identity and
// is permuted by wear-leveling migrations, which swap whole 64KB wear blocks
// (16 consecutive pages) so the mapping stays a bijection by construction.
type Translator struct {
	// pageShift is log2 of the page size, which NewTranslator checks is a
	// power of two; pages counts the pages on the media, whose capacity
	// may be any size.
	pageShift uint8
	pages     uint64
	fwd       *identPages
	rev       *identPages
}

// NewTranslator returns an identity translator over capacity bytes with the
// given page size. It panics unless pageSize is a power of two.
func NewTranslator(pageSize, capacity uint64) *Translator {
	n := capacity / pageSize
	return &Translator{
		pageShift: log2("AIT page size", pageSize),
		pages:     n,
		fwd:       newIdentPages(n),
		rev:       newIdentPages(n),
	}
}

// pageSize returns the translation granularity in bytes.
func (t *Translator) pageSize() uint64 { return 1 << t.pageShift }

// wrap folds a page or frame number onto the media. Only a number off the
// media pays for the division; one on it, the common case, costs a compare.
func (t *Translator) wrap(page uint64) uint64 {
	if page >= t.pages {
		page %= t.pages
	}
	return page
}

// Translate maps a CPU page number to its media frame number.
func (t *Translator) Translate(page uint64) uint64 {
	return t.fwd.get(t.wrap(page))
}

// Reverse maps a media frame number back to its CPU page number.
func (t *Translator) Reverse(frame uint64) uint64 {
	return t.rev.get(t.wrap(frame))
}

// ToMedia converts a CPU byte address to a media byte address.
func (t *Translator) ToMedia(addr uint64) uint64 {
	return t.Translate(addr>>t.pageShift)<<t.pageShift | addr&(t.pageSize()-1)
}

// AdoptFrom copies another translator's mapping into this one. The AIT
// translation table is persistent metadata on a real DIMM (backed up to
// media), so power-fail recovery adopts it wholesale.
func (t *Translator) AdoptFrom(old *Translator) {
	t.fwd.adoptFrom(old.fwd)
	t.rev.adoptFrom(old.rev)
}

// SwapPages exchanges the frames of two CPU pages, preserving bijectivity.
func (t *Translator) SwapPages(pa, pb uint64) {
	pa, pb = t.wrap(pa), t.wrap(pb)
	fa, fb := t.Translate(pa), t.Translate(pb)
	t.fwd.set(pa, fb)
	t.rev.set(fb, pa)
	t.fwd.set(pb, fa)
	t.rev.set(fa, pb)
}

// aitLine is one 4KB line of the AIT data buffer with per-256B sector
// state. The two words lead and the flags pack behind them, so a line is 24
// bytes and a 16-way set scan reads 384.
type aitLine struct {
	page    uint64 // CPU page number
	lastUse uint64
	valid   uint16 // sector presence bits
	dirty   uint16 // sector modified bits (write-back mode only)
	present bool
}

// AITBuffer is the 16MB DRAM-resident data buffer of the AIT: set
// associative with 4KB lines divided into 256B sectors (the DIMM-internal
// access granularity), so a line can be partially present after
// critical-sector-first fills.
type AITBuffer struct {
	// lines holds every set's ways back to back: set i is
	// lines[i*ways : (i+1)*ways].
	lines   []aitLine
	numSets int
	ways    int
	sectors int
	tick    uint64

	hits       uint64
	misses     uint64
	sectorMiss uint64 // line present but sector invalid
}

// NewAITBuffer returns a buffer of entries lines (entries/ways sets) with
// lineSize/sectorSize sectors per line. It panics unless the set count is a
// power of two, since a page picks its set with a mask.
func NewAITBuffer(entries, ways int, lineSize, sectorSize uint64) *AITBuffer {
	if ways <= 0 {
		ways = 16
	}
	numSets := entries / ways
	if numSets == 0 {
		numSets = 1
	}
	log2("AIT set count", uint64(numSets))
	return &AITBuffer{lines: make([]aitLine, numSets*ways), numSets: numSets, ways: ways,
		sectors: int(lineSize / sectorSize)}
}

// Hits / Misses / SectorMisses expose lookup statistics.
func (b *AITBuffer) Hits() uint64         { return b.hits }
func (b *AITBuffer) Misses() uint64       { return b.misses }
func (b *AITBuffer) SectorMisses() uint64 { return b.sectorMiss }

func (b *AITBuffer) set(page uint64) []aitLine {
	base := int(page&uint64(b.numSets-1)) * b.ways
	return b.lines[base : base+b.ways]
}

// find returns the way index holding page, or -1.
func (b *AITBuffer) find(page uint64) int {
	set := b.set(page)
	for i := range set {
		if set[i].present && set[i].page == page {
			return i
		}
	}
	return -1
}

// wayOf returns the way index holding page, or -1, checking way first. A
// line stays in its way until it is evicted, and a page is resident in at
// most one way of its set, so a way noted when the line was looked up or
// allocated answers exactly as find does; only a line that has moved since
// (or a way of -1) costs the scan.
func (b *AITBuffer) wayOf(page uint64, way int) int {
	if way >= 0 {
		if l := &b.set(page)[way]; l.present && l.page == page {
			return way
		}
	}
	return b.find(page)
}

// LookupSector probes for the given sector of page. It returns the way
// holding the 4KB line (-1 on a line miss) and sectorHit (that 256B sector
// is valid). LRU and statistics are updated.
func (b *AITBuffer) LookupSector(page uint64, sector int) (way int, sectorHit bool) {
	i := b.find(page)
	if i < 0 {
		b.misses++
		return -1, false
	}
	set := b.set(page)
	b.tick++
	set[i].lastUse = b.tick
	if set[i].valid&(1<<sector) == 0 {
		b.sectorMiss++
		return i, false
	}
	b.hits++
	return i, true
}

// AITEvicted describes a line displaced by Allocate.
type AITEvicted struct {
	Page        uint64
	DirtySector uint16
}

// Allocate installs a line for page (invalid sectors) and returns its way
// and the displaced line if one was evicted. Allocating a resident page only
// returns its way.
func (b *AITBuffer) Allocate(page uint64) (way int, ev AITEvicted, evicted bool) {
	if i := b.find(page); i >= 0 {
		return i, AITEvicted{}, false
	}
	set := b.set(page)
	victim := 0
	for i := range set {
		if !set[i].present {
			victim = i
			goto install
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if set[victim].present {
		ev = AITEvicted{Page: set[victim].page, DirtySector: set[victim].dirty}
		evicted = ev.DirtySector != 0
	}
install:
	b.tick++
	set[victim] = aitLine{page: page, lastUse: b.tick, present: true}
	return victim, ev, evicted
}

// FillSector marks one sector of a resident page valid (after a media read).
// way is where the page's line was when the read started (-1 if unknown);
// the line is found there unless it has moved since.
func (b *AITBuffer) FillSector(page uint64, way, sector int) {
	if i := b.wayOf(page, way); i >= 0 {
		b.set(page)[i].valid |= 1 << sector
	}
}

// WriteSector marks a sector valid and, in write-back mode, dirty.
func (b *AITBuffer) WriteSector(page uint64, sector int, writeBack bool) {
	if i := b.find(page); i >= 0 {
		set := b.set(page)
		set[i].valid |= 1 << sector
		if writeBack {
			set[i].dirty |= 1 << sector
		}
	}
}

// CleanLine clears all dirty bits of a resident page.
func (b *AITBuffer) CleanLine(page uint64) {
	if i := b.find(page); i >= 0 {
		b.set(page)[i].dirty = 0
	}
}

// missingMask returns the invalid-sector bitmask of a resident page (bit s
// set = sector s invalid), 0 when the page is absent. way is checked first,
// as in FillSector.
func (b *AITBuffer) missingMask(page uint64, way int) uint16 {
	i := b.wayOf(page, way)
	if i < 0 {
		return 0
	}
	return ^b.set(page)[i].valid & uint16(uint32(1)<<b.sectors-1)
}

// DirtyPages returns pages with any dirty sector and their dirty masks.
func (b *AITBuffer) DirtyPages() map[uint64]uint16 {
	out := make(map[uint64]uint16)
	for i := range b.lines {
		if l := &b.lines[i]; l.present && l.dirty != 0 {
			out[l.page] = l.dirty
		}
	}
	return out
}

// Resident reports whether page is in the buffer (no LRU/stat side effects).
func (b *AITBuffer) Resident(page uint64) bool { return b.find(page) >= 0 }
