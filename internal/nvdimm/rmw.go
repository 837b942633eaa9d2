package nvdimm

// rmwLine is one 256B line of the SRAM RMW buffer. prev/next link it into
// the buffer's LRU list by slot index (-1 ends the list).
type rmwLine struct {
	block      uint64
	dirty      bool
	lastUse    uint64
	prev, next int32
}

// RMWBuffer is the 16KB SRAM read-modify-write buffer: fully associative,
// LRU-replaced, 256B lines. Writes smaller than a full line require the line
// to be present (read-modify-write); the controller fetches absent lines from
// the AIT before applying partial writes.
//
// Lines live in a fixed slot array threaded onto an intrusive LRU list,
// least recently used at head. Every touch stamps lastUse with a fresh,
// strictly increasing tick and moves the line to the tail, so the list is
// always in lastUse order: the head is exactly the minimum-lastUse line a
// full scan would pick, found in O(1), and an eviction reuses the victim's
// slot instead of allocating.
type RMWBuffer struct {
	index   map[uint64]int32 // block -> slot
	slots   []rmwLine        // len = lines ever installed, at most entries
	head    int32            // least recently used slot (-1 when empty)
	tail    int32            // most recently used slot (-1 when empty)
	entries int
	tick    uint64

	hits   uint64
	misses uint64
}

// NewRMWBuffer returns a buffer with the given number of 256B lines.
func NewRMWBuffer(entries int) *RMWBuffer {
	return &RMWBuffer{
		index:   make(map[uint64]int32, entries),
		slots:   make([]rmwLine, 0, entries),
		head:    -1,
		tail:    -1,
		entries: entries,
	}
}

// Len returns the resident line count.
func (b *RMWBuffer) Len() int { return len(b.slots) }

// Hits and Misses expose lookup statistics.
func (b *RMWBuffer) Hits() uint64   { return b.hits }
func (b *RMWBuffer) Misses() uint64 { return b.misses }

// unlink removes slot i from the LRU list.
func (b *RMWBuffer) unlink(i int32) {
	l := &b.slots[i]
	if l.prev >= 0 {
		b.slots[l.prev].next = l.next
	} else {
		b.head = l.next
	}
	if l.next >= 0 {
		b.slots[l.next].prev = l.prev
	} else {
		b.tail = l.prev
	}
}

// pushMRU appends slot i at the most recently used end of the list.
func (b *RMWBuffer) pushMRU(i int32) {
	l := &b.slots[i]
	l.prev, l.next = b.tail, -1
	if b.tail >= 0 {
		b.slots[b.tail].next = i
	} else {
		b.head = i
	}
	b.tail = i
}

// touch stamps slot i with a fresh tick and makes it most recently used.
func (b *RMWBuffer) touch(i int32) {
	b.slots[i].lastUse = b.tick
	if i != b.tail {
		b.unlink(i)
		b.pushMRU(i)
	}
}

// Lookup probes for block (256B-aligned) and updates LRU state on hit.
func (b *RMWBuffer) Lookup(block uint64) bool {
	if i, ok := b.index[block]; ok {
		b.tick++
		b.touch(i)
		b.hits++
		return true
	}
	b.misses++
	return false
}

// Peek probes without touching LRU or statistics.
func (b *RMWBuffer) Peek(block uint64) bool {
	_, ok := b.index[block]
	return ok
}

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Block uint64
	Dirty bool
}

// Insert installs block, returning the displaced line if any. Inserting a
// resident block only refreshes its LRU position.
func (b *RMWBuffer) Insert(block uint64) (ev Evicted, evicted bool) {
	b.tick++
	if i, ok := b.index[block]; ok {
		b.touch(i)
		return Evicted{}, false
	}
	var i int32
	if len(b.slots) >= b.entries {
		i = b.head
		victim := &b.slots[i]
		ev = Evicted{Block: victim.block, Dirty: victim.dirty}
		evicted = true
		delete(b.index, victim.block)
		b.unlink(i)
	} else {
		i = int32(len(b.slots))
		b.slots = append(b.slots, rmwLine{})
	}
	b.slots[i] = rmwLine{block: block, lastUse: b.tick}
	b.index[block] = i
	b.pushMRU(i)
	return ev, evicted
}

// MarkDirty flags a resident block as modified; it reports whether the block
// was present.
func (b *RMWBuffer) MarkDirty(block uint64) bool {
	i, ok := b.index[block]
	if ok {
		b.slots[i].dirty = true
	}
	return ok
}
