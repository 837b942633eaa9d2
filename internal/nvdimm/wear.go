package nvdimm

import (
	"repro/internal/dram"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/sim"
)

// MigrationEvent records one wear-leveling migration for analysis.
type MigrationEvent struct {
	At      sim.Cycle
	Block   uint64 // media wear-block base address that wore out
	Partner uint64 // wear block it was swapped with
	// TriggerCPU is the CPU address whose write crossed the threshold
	// (for attributing migrations to hot lines, Figure 12b).
	TriggerCPU uint64
}

// WearLeveler watches media wear counters and migrates 64KB wear blocks that
// exceed the write threshold: the worn block's pages are swapped with a
// randomly chosen partner block's pages in the AIT translation, the media
// copy occupies the block for MigrationNs, and in-flight accesses to the
// block stall — producing the paper's >100x tail latencies roughly every
// 14,000 concentrated 256B writes.
type WearLeveler struct {
	eng       *sim.Engine
	med       *media.XPoint
	trans     *Translator
	threshold uint64
	stall     sim.Cycle
	wearBlock uint64
	pageSize  uint64
	rng       *sim.RNG

	// busyUntil maps a media wear-block base to the cycle its migration
	// completes.
	busyUntil map[uint64]sim.Cycle

	events     []MigrationEvent
	migrations uint64

	o    *obs.Obs
	comp string
	// histMig records per-migration stall duration in ns (nil without Obs).
	histMig *obs.Histogram
}

// NewWearLeveler wires a leveler to the media and translator.
func NewWearLeveler(eng *sim.Engine, med *media.XPoint, trans *Translator,
	threshold uint64, stall sim.Cycle, seed uint64) *WearLeveler {
	return &WearLeveler{
		eng:       eng,
		med:       med,
		trans:     trans,
		threshold: threshold,
		stall:     stall,
		wearBlock: med.Config().WearBlock,
		pageSize:  trans.pageSize(),
		rng:       sim.NewRNG(seed),
		busyUntil: make(map[uint64]sim.Cycle),
	}
}

// Migrations returns the number of migrations performed.
func (w *WearLeveler) Migrations() uint64 { return w.migrations }

// Events returns the recorded migrations (owned by the leveler).
func (w *WearLeveler) Events() []MigrationEvent { return w.events }

// block returns the wear-block base of a media address. The wear block is
// a power of two (media.New checks it).
func (w *WearLeveler) block(mediaAddr uint64) uint64 {
	return mediaAddr &^ (w.wearBlock - 1)
}

// BusyUntil returns the cycle until which accesses to the wear block
// containing mediaAddr must stall (0 when idle).
func (w *WearLeveler) BusyUntil(mediaAddr uint64) sim.Cycle {
	if until, ok := w.busyUntil[w.block(mediaAddr)]; ok {
		if until > w.eng.Now() {
			return until
		}
		delete(w.busyUntil, w.block(mediaAddr))
	}
	return 0
}

// NoteWrite is called after every media block write; it triggers a migration
// when the wear counter crosses the threshold. It returns the stall horizon
// when a migration started, else 0.
func (w *WearLeveler) NoteWrite(mediaAddr uint64) sim.Cycle {
	if w.med.WearCount(mediaAddr) < w.threshold {
		return 0
	}
	return w.migrate(mediaAddr)
}

// migrate swaps the worn block with a random partner and blocks both for the
// migration duration.
func (w *WearLeveler) migrate(mediaAddr uint64) sim.Cycle {
	worn := w.block(mediaAddr)
	// Resolve the triggering CPU address before the swap mutates the
	// translation.
	triggerCPU := w.trans.Reverse(mediaAddr/w.pageSize)*w.pageSize + mediaAddr%w.pageSize
	capacity := w.med.Config().Capacity
	nBlocks := capacity / w.wearBlock
	partner := worn
	for tries := 0; tries < 8 && partner == worn; tries++ {
		partner = w.rng.Uint64n(nBlocks) * w.wearBlock
	}
	if partner == worn {
		// Degenerate capacity (single wear block): just reset wear.
		w.med.ResetWear(worn)
		return 0
	}

	// Swap the translation of every page pair in the two wear blocks. The
	// blocks are identified by media address; swap their CPU pages.
	pagesPerBlock := w.wearBlock / w.pageSize
	for i := uint64(0); i < pagesPerBlock; i++ {
		frameA := (worn + i*w.pageSize) / w.pageSize
		frameB := (partner + i*w.pageSize) / w.pageSize
		pageA := w.trans.Reverse(frameA)
		pageB := w.trans.Reverse(frameB)
		w.trans.SwapPages(pageA, pageB)
		// Functional contents move with the translation swap: data that
		// lived in frameA is now addressed through frameB and vice versa.
		if w.med.Config().Functional {
			w.swapFrames(frameA, frameB)
		}
	}

	until := w.eng.Now() + w.stall
	w.busyUntil[worn] = until
	w.busyUntil[partner] = until
	w.med.ResetWear(worn)
	w.med.ResetWear(partner)
	w.migrations++
	w.events = append(w.events, MigrationEvent{
		At: w.eng.Now(), Block: worn, Partner: partner, TriggerCPU: triggerCPU})
	if w.histMig != nil {
		w.histMig.Observe(uint64(float64(w.stall) / dram.CyclesPerNano))
	}
	if w.o.Active() {
		w.o.Emit(obs.Event{Now: w.eng.Now(), Stage: obs.StageWear, Pos: obs.PosMigrate,
			Write: true, Comp: w.comp, Addr: worn, Arg: uint64(w.stall)})
	}
	return until
}

// swapFrames exchanges the functional contents of two media frames.
func (w *WearLeveler) swapFrames(frameA, frameB uint64) {
	blk := w.med.Config().BlockSize
	for off := uint64(0); off < w.pageSize; off += blk {
		a := frameA*w.pageSize + off
		b := frameB*w.pageSize + off
		da := w.med.ReadData(a, int(blk))
		db := w.med.ReadData(b, int(blk))
		w.med.WriteData(a, db)
		w.med.WriteData(b, da)
	}
}
