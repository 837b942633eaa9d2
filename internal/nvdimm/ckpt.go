package nvdimm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// This file is the nvdimm half of the exact-state checkpoint subsystem:
// every mutable structure inside a DIMM serializes itself in a fixed,
// documented field order (DESIGN.md §12). Configuration is never carried —
// the restoring side rebuilds the same structures from the same plan and
// the loaders verify the geometry matches.

// SaveState serializes the LSQ: live entries oldest-first as (line, enq),
// then merges and accepts.
func (q *LSQ) SaveState(enc *ckpt.Enc) {
	enc.U32(uint32(q.Len()))
	for _, s := range q.order {
		if s.line != lsqTombstone {
			enc.U64(s.line)
			enc.U64(uint64(s.enq))
		}
	}
	enc.U64(q.merges)
	enc.U64(q.accepts)
}

// LoadState restores an LSQ captured by SaveState.
func (q *LSQ) LoadState(dec *ckpt.Dec) error {
	n := dec.Count(16)
	if err := dec.Err(); err != nil {
		return err
	}
	if n > q.maxSlots {
		return fmt.Errorf("%w: %d LSQ entries, capacity %d", ckpt.ErrCorrupt, n, q.maxSlots)
	}
	q.slots.Clear()
	q.order, q.head = q.order[:0], 0
	q.haveRefused = false
	for i := 0; i < n; i++ {
		line := dec.U64()
		enq := sim.Cycle(dec.U64())
		if err := dec.Err(); err != nil {
			return err
		}
		if _, dup := q.slots.Get(line); dup {
			return fmt.Errorf("%w: duplicate LSQ line %#x", ckpt.ErrCorrupt, line)
		}
		q.slots.Set(line, int32(len(q.order)))
		q.order = append(q.order, lsqSlot{line: line, enq: enq})
	}
	q.merges = dec.U64()
	q.accepts = dec.U64()
	return dec.Err()
}

// SaveState serializes the RMW buffer: resident lines sorted by block as
// (block, dirty, lastUse), then tick, hits, misses.
func (b *RMWBuffer) SaveState(enc *ckpt.Enc) {
	lines := b.lines.Entries(nil)
	slices.SortFunc(lines, func(x, y sim.LRUEntry[bool]) int { return cmp.Compare(x.Key, y.Key) })
	enc.U32(uint32(len(lines)))
	for _, l := range lines {
		enc.U64(l.Key)
		enc.Bool(l.Val)
		enc.U64(l.LastUse)
	}
	enc.U64(b.lines.Tick())
	enc.U64(b.hits)
	enc.U64(b.misses)
}

// LoadState restores an RMW buffer captured by SaveState. The LRU list is
// rebuilt in lastUse order, so the restored buffer evicts exactly the
// victims the captured one would have.
func (b *RMWBuffer) LoadState(dec *ckpt.Dec) error {
	lines := make([]sim.LRUEntry[bool], dec.Count(17))
	for i := range lines {
		lines[i] = sim.LRUEntry[bool]{Key: dec.U64(), Val: dec.Bool(), LastUse: dec.U64()}
	}
	tick := dec.U64()
	b.hits = dec.U64()
	b.misses = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	return b.lines.Restore(lines, tick)
}

// SaveState serializes the AIT data buffer densely: set count, ways, then
// every way of every set as (present, page, valid, dirty, lastUse), then
// tick, hits, misses, sectorMiss.
func (b *AITBuffer) SaveState(enc *ckpt.Enc) {
	enc.U32(uint32(b.numSets))
	enc.U32(uint32(b.ways))
	for i := range b.lines {
		l := &b.lines[i]
		enc.Bool(l.present)
		enc.U64(l.page)
		enc.U16(l.valid)
		enc.U16(l.dirty)
		enc.U64(l.lastUse)
	}
	enc.U64(b.tick)
	enc.U64(b.hits)
	enc.U64(b.misses)
	enc.U64(b.sectorMiss)
}

// LoadState restores an AIT buffer captured by SaveState.
func (b *AITBuffer) LoadState(dec *ckpt.Dec) error {
	sets := int(dec.U32())
	ways := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if sets != b.numSets || ways != b.ways {
		return fmt.Errorf("%w: AIT geometry %dx%d, this buffer %dx%d",
			ckpt.ErrCorrupt, sets, ways, b.numSets, b.ways)
	}
	for i := range b.lines {
		l := &b.lines[i]
		l.present = dec.Bool()
		l.page = dec.U64()
		l.valid = dec.U16()
		l.dirty = dec.U16()
		l.lastUse = dec.U64()
	}
	b.tick = dec.U64()
	b.hits = dec.U64()
	b.misses = dec.U64()
	b.sectorMiss = dec.U64()
	return dec.Err()
}

// saveState serializes the identity-default paged array as its allocated
// leaves (leaf index + 512 raw entries each).
func (p *identPages) saveState(enc *ckpt.Enc) {
	n := uint32(0)
	for _, l := range p.leaves {
		if l != nil {
			n++
		}
	}
	enc.U32(n)
	for li, l := range p.leaves {
		if l == nil {
			continue
		}
		enc.U64(uint64(li))
		enc.U64Array(l)
	}
}

func (p *identPages) loadState(dec *ckpt.Dec) error {
	n := dec.Count(8 + identLeafSize*8)
	if err := dec.Err(); err != nil {
		return err
	}
	clear(p.leaves)
	for i := 0; i < n; i++ {
		li := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if li >= uint64(p.dirLen) {
			return fmt.Errorf("%w: translation leaf %d beyond directory of %d",
				ckpt.ErrCorrupt, li, p.dirLen)
		}
		l := make([]uint64, identLeafSize)
		for j := range l {
			l[j] = dec.U64()
		}
		if err := dec.Err(); err != nil {
			return err
		}
		p.dir()[li] = l
	}
	return nil
}

// SaveState serializes the translation tables (forward then reverse).
func (t *Translator) SaveState(enc *ckpt.Enc) {
	t.fwd.saveState(enc)
	t.rev.saveState(enc)
}

// LoadState restores translation tables captured by SaveState.
func (t *Translator) LoadState(dec *ckpt.Dec) error {
	if err := t.fwd.loadState(dec); err != nil {
		return err
	}
	return t.rev.loadState(dec)
}

// SaveState serializes the wear-leveler: partner-selection RNG, busy windows
// sorted by block, migration count, and the recorded migration events.
func (w *WearLeveler) SaveState(enc *ckpt.Enc) {
	w.rng.SaveState(enc)
	blocks := make([]uint64, 0, len(w.busyUntil))
	for b := range w.busyUntil {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	enc.U32(uint32(len(blocks)))
	for _, b := range blocks {
		enc.U64(b)
		enc.U64(uint64(w.busyUntil[b]))
	}
	enc.U64(w.migrations)
	enc.U32(uint32(len(w.events)))
	for _, ev := range w.events {
		enc.U64(uint64(ev.At))
		enc.U64(ev.Block)
		enc.U64(ev.Partner)
		enc.U64(ev.TriggerCPU)
	}
	w.histMig.SaveState(enc)
}

// LoadState restores a wear-leveler captured by SaveState.
func (w *WearLeveler) LoadState(dec *ckpt.Dec) error {
	w.rng.LoadState(dec)
	n := dec.Count(16)
	if err := dec.Err(); err != nil {
		return err
	}
	clear(w.busyUntil)
	for i := 0; i < n; i++ {
		b := dec.U64()
		until := sim.Cycle(dec.U64())
		w.busyUntil[b] = until
	}
	w.migrations = dec.U64()
	ne := dec.Count(32)
	if err := dec.Err(); err != nil {
		return err
	}
	w.events = w.events[:0]
	for i := 0; i < ne; i++ {
		w.events = append(w.events, MigrationEvent{
			At:         sim.Cycle(dec.U64()),
			Block:      dec.U64(),
			Partner:    dec.U64(),
			TriggerCPU: dec.U64(),
		})
	}
	if err := w.histMig.LoadState(dec); err != nil {
		return err
	}
	return dec.Err()
}

// SaveState serializes one DIMM and all its children. Field order: raw stats
// counters, RMW port reservation, drain/flush flags, in-flight counters,
// then LSQ, RMW buffer, AIT buffer, translator, wear-leveler, media, and
// the on-DIMM DRAM controller.
//
// The optional Lazy-cache and pre-translation optimizations and a live fault
// injector are rejected: their state is not part of the snapshot format, and
// the plan validator keeps them off checkpointed jobs.
func (d *DIMM) SaveState(enc *ckpt.Enc) error {
	if d.lazy != nil || d.pretrans != nil {
		return fmt.Errorf("ckpt: DIMM with lazy-cache/pre-translation optimizations cannot be checkpointed")
	}
	if d.inj != nil {
		return fmt.Errorf("ckpt: DIMM with a fault injector cannot be checkpointed")
	}
	enc.U64(d.stats.ClientReads)
	enc.U64(d.stats.ClientWrites)
	enc.U64(d.stats.LSQForwards)
	enc.U64(d.stats.LSQStalls)
	enc.U64(d.stats.PartialRMW)
	enc.U64(d.stats.TableReads)
	enc.U64(d.stats.MediaStalls)
	enc.U64(d.stats.MediaPoison)
	enc.U64(d.stats.FaultStalls)
	enc.U64(uint64(d.rmwFree))
	enc.Bool(d.draining)
	enc.U64(uint64(d.flushing))
	enc.U64(uint64(d.readsInFlight))
	enc.U64(uint64(d.writesInFlight))
	enc.U64(uint64(d.mediaInFlight))
	d.lsq.SaveState(enc)
	d.rmw.SaveState(enc)
	d.buf.SaveState(enc)
	d.trans.SaveState(enc)
	d.wear.SaveState(enc)
	d.med.SaveState(enc)
	if err := d.dramC.SaveState(enc); err != nil {
		return err
	}
	d.histLSQWait.SaveState(enc)
	d.histAIT.SaveState(enc)
	return nil
}

// LoadState restores a DIMM captured by SaveState into a freshly built DIMM
// with the same configuration.
func (d *DIMM) LoadState(dec *ckpt.Dec) error {
	if d.lazy != nil || d.pretrans != nil {
		return fmt.Errorf("ckpt: DIMM with lazy-cache/pre-translation optimizations cannot be restored into")
	}
	if d.inj != nil {
		return fmt.Errorf("ckpt: DIMM with a fault injector cannot be restored into")
	}
	d.stats.ClientReads = dec.U64()
	d.stats.ClientWrites = dec.U64()
	d.stats.LSQForwards = dec.U64()
	d.stats.LSQStalls = dec.U64()
	d.stats.PartialRMW = dec.U64()
	d.stats.TableReads = dec.U64()
	d.stats.MediaStalls = dec.U64()
	d.stats.MediaPoison = dec.U64()
	d.stats.FaultStalls = dec.U64()
	d.rmwFree = sim.Cycle(dec.U64())
	d.draining = dec.Bool()
	d.flushing = int(dec.U64())
	d.readsInFlight = int(dec.U64())
	d.writesInFlight = int(dec.U64())
	d.mediaInFlight = int(dec.U64())
	if err := dec.Err(); err != nil {
		return err
	}
	if err := d.lsq.LoadState(dec); err != nil {
		return err
	}
	if err := d.rmw.LoadState(dec); err != nil {
		return err
	}
	if err := d.buf.LoadState(dec); err != nil {
		return err
	}
	if err := d.trans.LoadState(dec); err != nil {
		return err
	}
	if err := d.wear.LoadState(dec); err != nil {
		return err
	}
	if err := d.med.LoadState(dec); err != nil {
		return err
	}
	if err := d.dramC.LoadState(dec); err != nil {
		return err
	}
	if err := d.histLSQWait.LoadState(dec); err != nil {
		return err
	}
	return d.histAIT.LoadState(dec)
}
