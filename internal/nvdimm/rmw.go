package nvdimm

import "repro/internal/sim"

// RMWBuffer is the 16KB SRAM read-modify-write buffer: fully associative,
// LRU-replaced, 256B lines. Writes smaller than a full line require the line
// to be present (read-modify-write); the controller fetches absent lines from
// the AIT before applying partial writes.
//
// The lines are a sim.LRU keyed by block whose value is the line's dirty
// flag: Lookup and Insert touch a line, Peek and MarkDirty do not.
type RMWBuffer struct {
	lines sim.LRU[bool]

	hits   uint64
	misses uint64
}

// NewRMWBuffer returns a buffer with the given number of 256B lines.
func NewRMWBuffer(entries int) *RMWBuffer {
	b := &RMWBuffer{}
	b.lines.Init(entries)
	return b
}

// Len returns the resident line count.
func (b *RMWBuffer) Len() int { return b.lines.Len() }

// Hits and Misses expose lookup statistics.
func (b *RMWBuffer) Hits() uint64   { return b.hits }
func (b *RMWBuffer) Misses() uint64 { return b.misses }

// Lookup probes for block (256B-aligned) and updates LRU state on hit.
func (b *RMWBuffer) Lookup(block uint64) bool {
	if _, ok := b.lines.Get(block); ok {
		b.hits++
		return true
	}
	b.misses++
	return false
}

// Peek probes without touching LRU or statistics.
func (b *RMWBuffer) Peek(block uint64) bool { return b.lines.Contains(block) }

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Block uint64
	Dirty bool
}

// Insert installs block clean, returning the displaced line if any.
// Inserting a resident block only refreshes its LRU position.
func (b *RMWBuffer) Insert(block uint64) (ev Evicted, evicted bool) {
	if _, ok := b.lines.Get(block); ok {
		return Evicted{}, false
	}
	ev.Block, ev.Dirty, evicted = b.lines.Put(block, false)
	return ev, evicted
}

// MarkDirty flags a resident block as modified; it reports whether the block
// was present.
func (b *RMWBuffer) MarkDirty(block uint64) bool {
	dirty := b.lines.Peek(block)
	if dirty != nil {
		*dirty = true
	}
	return dirty != nil
}
