package nvdimm

import (
	"repro/internal/sim"
)

// lsqSlot is one 64B entry of the on-DIMM load-store queue.
type lsqSlot struct {
	line uint64 // 64B-aligned address
	enq  sim.Cycle
}

// LSQ is the on-DIMM load-store queue. It holds 64B store entries, merges
// repeated stores to the same line in place, and drains entries grouped by
// combine block (256B) so that downstream sees combined read-modify-write
// operations — the write-combining behavior the paper attributes to the LSQ.
// The iMC's write pending queue is an LSQ too.
type LSQ struct {
	slots sim.KeyIndex // line -> index into order, for every live entry
	order []lsqSlot    // FIFO by enqueue; holes marked line==tombstone
	// head indexes the oldest live entry of order (len(order) when none
	// is live): everything before it is a tombstone.
	head     int
	maxSlots int
	combine  uint64

	// refusedLine is the line the full queue last refused. A full queue
	// only merges into lines it holds, and only PopGroup frees a slot, so
	// the line stays refused until a pop; Accept answers a retry of it
	// without probing the line index.
	refusedLine uint64
	haveRefused bool

	merges  uint64
	accepts uint64
}

const lsqTombstone = ^uint64(0)

// NewLSQ returns an LSQ with maxSlots 64B entries combining at combine-byte
// blocks. It panics unless combine is a power of two.
func NewLSQ(maxSlots int, combine uint64) *LSQ {
	log2("LSQ combine block", combine)
	q := &LSQ{maxSlots: maxSlots, combine: combine}
	q.slots.Init(maxSlots)
	return q
}

// Len returns the live entry count.
func (q *LSQ) Len() int { return q.slots.Len() }

// Full reports whether no new distinct line can be accepted.
func (q *LSQ) Full() bool { return q.Len() >= q.maxSlots }

// Empty reports whether the queue holds no entries.
func (q *LSQ) Empty() bool { return q.Len() == 0 }

// Merges returns how many accepts merged into an existing slot.
func (q *LSQ) Merges() uint64 { return q.merges }

// Contains reports whether a store to the 64B line at addr is pending
// (used for read forwarding — the data fast-forward effect LENS measures).
func (q *LSQ) Contains(line uint64) bool {
	_, ok := q.slots.Get(line)
	return ok
}

// ContainsBlock reports whether any pending store falls in the combine block
// containing addr.
func (q *LSQ) ContainsBlock(block uint64) bool {
	// The slot index is keyed by 64B line; scan the lines of the block.
	for l := block; l < block+q.combine; l += 64 {
		if _, ok := q.slots.Get(l); ok {
			return true
		}
	}
	return false
}

// Accept enqueues a 64B store to line at time now. It reports
// (merged, accepted): merged means an existing slot was overwritten in
// place; accepted==false means the queue is full and the caller must retry.
func (q *LSQ) Accept(line uint64, now sim.Cycle) (merged, accepted bool) {
	if q.haveRefused && line == q.refusedLine {
		return false, false
	}
	if i, ok := q.slots.Get(line); ok {
		q.order[i].enq = now
		q.merges++
		return true, true
	}
	if q.Full() {
		q.refusedLine, q.haveRefused = line, true
		return false, false
	}
	q.slots.Set(line, int32(len(q.order)))
	q.order = append(q.order, lsqSlot{line: line, enq: now})
	q.accepts++
	q.compact()
	return false, true
}

// compact drops tombstones in place once they outnumber live entries,
// keeping drain scans O(live) without reallocating the order slice.
func (q *LSQ) compact() {
	if len(q.order) < 2*q.Len()+8 {
		return
	}
	n := 0
	for _, s := range q.order[q.head:] {
		if s.line != lsqTombstone {
			q.slots.Set(s.line, int32(n))
			q.order[n] = s
			n++
		}
	}
	q.order, q.head = q.order[:n], 0
}

// OldestAge returns now minus the enqueue time of the oldest live entry
// (0 when empty).
func (q *LSQ) OldestAge(now sim.Cycle) sim.Cycle {
	if enq := q.OldestEnq(); !q.Empty() && now > enq {
		return now - enq
	}
	return 0
}

// OldestEnq returns the enqueue cycle of the oldest live entry, the one
// OldestAge measures (0 when empty).
func (q *LSQ) OldestEnq() sim.Cycle {
	if q.Empty() {
		return 0
	}
	return q.order[q.head].enq
}

// Group is one drained write-combining group: a combine-block-aligned
// address plus the mask of 64B sub-lines present (bit i = line at
// Block + 64*i).
type Group struct {
	Block uint64
	Mask  uint16
	// Enq is the enqueue cycle of the oldest entry in the group — the queue
	// residency anchor the wait histograms measure against.
	Enq sim.Cycle
}

// Lines returns the count of 64B lines in the group.
func (g Group) Lines() int {
	n := 0
	for m := g.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Complete reports whether the group covers the whole combine block of size
// blockBytes.
func (g Group) Complete(blockBytes uint64) bool {
	full := uint16(1)<<(blockBytes/64) - 1
	return g.Mask == full
}

// PopGroup removes and returns the oldest entry together with every other
// entry in its combine block. ok is false when empty.
func (q *LSQ) PopGroup() (Group, bool) {
	if q.Empty() {
		return Group{}, false
	}
	q.haveRefused = false
	oldest := &q.order[q.head]
	block := oldest.line &^ (q.combine - 1)
	g := Group{Block: block, Enq: oldest.enq}
	for l := block; l < block+q.combine; l += 64 {
		if i, ok := q.slots.Delete(l); ok {
			g.Mask |= 1 << ((l - block) / 64)
			q.order[i].line = lsqTombstone
		}
	}
	// The group took the oldest entry, so the head moves past it and the
	// tombstones behind it.
	for q.head < len(q.order) && q.order[q.head].line == lsqTombstone {
		q.head++
	}
	return g, true
}
