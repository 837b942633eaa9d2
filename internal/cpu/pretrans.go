package cpu

import (
	"repro/internal/sim"
)

// RLB is the Read Lookaside Buffer of the Pre-translation optimization
// (Section V-B): a small SRAM cache of pre-translation table entries, each
// mapping a physical address holding a pointer to the page frame number that
// pointer references.
type RLB struct {
	entries map[uint64]uint64 // paddr (line-aligned) -> pfn
	// order is the FIFO of resident keys: a ring of capacity entries whose
	// oldest is at head once the buffer is full.
	order   []uint64
	head    int
	hits    uint64
	lookups uint64
}

// NewRLB returns an RLB with the given entry count.
func NewRLB(entries int) *RLB {
	if entries < 1 {
		entries = 1
	}
	return &RLB{entries: make(map[uint64]uint64, entries), order: make([]uint64, 0, entries)}
}

// key normalizes the pointer location address.
func (r *RLB) key(paddr uint64) uint64 { return paddr &^ 63 }

// Lookup probes for the pointee pfn recorded for paddr.
func (r *RLB) Lookup(paddr uint64) (uint64, bool) {
	r.lookups++
	pfn, ok := r.entries[r.key(paddr)]
	if ok {
		r.hits++
	}
	return pfn, ok
}

// Insert records paddr -> pfn, evicting FIFO at capacity.
func (r *RLB) Insert(paddr, pfn uint64) {
	k := r.key(paddr)
	if _, ok := r.entries[k]; ok {
		r.entries[k] = pfn
		return
	}
	if len(r.order) < cap(r.order) {
		r.order = append(r.order, k)
	} else {
		delete(r.entries, r.order[r.head])
		r.order[r.head] = k
		if r.head++; r.head == len(r.order) {
			r.head = 0
		}
	}
	r.entries[k] = pfn
}

// Hits and Lookups expose counters.
func (r *RLB) Hits() uint64    { return r.hits }
func (r *RLB) Lookups() uint64 { return r.lookups }

// mkptLoad implements the mkpt-marked load semantics (Figure 13b/13c):
//
//  1. The RLB (or, one extra DRAM access later, the DIMM's pre-translation
//     table) is probed with the load's physical address.
//  2. On a hit whose pfn matches the pointee, the TLB entry for the next
//     access arrives with the data: the CPU's TLBs are pre-filled, so the
//     dependent load skips its TLB miss. Check-before-read validates the
//     entry (stale entries are discarded and corrected).
//  3. On a miss or stale entry, mkpt updates the table after the load.
//
// On an RLB miss it extends tok, the load's completion token, by the extra
// access.
func (c *Core) mkptLoad(in Instr, tok *token) {
	if c.rlb == nil || c.preTrans == nil {
		return
	}
	c.stats.MkptMarked++
	actualPfn := in.NextAddr / c.cfg.PageSize

	if pfn, ok := c.rlb.Lookup(in.Addr); ok {
		c.stats.RLBHits++
		if pfn == actualPfn {
			c.prefillTLB(in.NextAddr)
			c.stats.PreTransHits++
		} else {
			c.stats.PreTransStale++
			c.rlb.Insert(in.Addr, actualPfn)
			c.preTrans.Update(in.Addr, actualPfn)
		}
		return
	}

	// RLB miss: the DIMM fetches the pre-translation entry alongside the
	// data (one extra on-DIMM DRAM access on the load's critical path).
	c.extend(tok, c.preTrans.ExtraLatency())
	if pfn, ok := c.preTrans.Lookup(in.Addr); ok {
		c.rlb.Insert(in.Addr, pfn)
		if pfn == actualPfn {
			c.prefillTLB(in.NextAddr)
			c.stats.PreTransHits++
		} else {
			c.stats.PreTransStale++
			c.preTrans.Update(in.Addr, actualPfn)
			c.rlb.Insert(in.Addr, actualPfn)
		}
	} else {
		// Table miss: mkpt updates the entry for future traversals.
		c.preTrans.Update(in.Addr, actualPfn)
		c.rlb.Insert(in.Addr, actualPfn)
	}
}

// prefillTLB installs the pointee translation as if delivered with the data.
func (c *Core) prefillTLB(addr uint64) {
	c.stlb.Insert(addr)
	c.dtlb.Insert(addr)
}

// extend delays tok's completion by extra cycles without blocking the issue
// path. A load still in flight records the delay for memDone, which
// schedules the completion when the data arrives; a resolved one completes
// extra after its resolution, immediately if that time has passed.
func (c *Core) extend(tok *token, extra sim.Cycle) {
	if !tok.done {
		tok.extra = extra
		return
	}
	at := tok.at + extra
	tok.at = at
	if at <= c.eng.Now() {
		return
	}
	tok.done = false
	c.eng.ScheduleFn(at, tokenDone, tok)
}
