package nvdimm

import (
	"slices"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stats aggregates DIMM-internal activity for validation experiments.
type Stats struct {
	ClientReads  uint64
	ClientWrites uint64
	LSQForwards  uint64 // reads served by LSQ data fast-forward
	LSQMerges    uint64
	LSQStalls    uint64 // write accepts rejected for a full LSQ
	RMWHits      uint64
	RMWMisses    uint64
	PartialRMW   uint64 // partial-block writes that required a fill read
	AITHits      uint64
	AITLineMiss  uint64
	AITSectorMis uint64
	TableReads   uint64
	MediaStalls  uint64 // accesses delayed by an in-progress migration
	Migrations   uint64
	MediaPoison  uint64 // injected uncorrectable media read errors
	FaultStalls  uint64 // injected AIT stall spikes
}

// DIMM is one Optane DIMM: LSQ + RMW buffer + AIT (translation table and
// data buffer in on-DIMM DRAM) + wear-leveler + 3D-XPoint media. The iMC
// talks to it through Read / AcceptWrite / Flush; a standalone mem.System
// adapter is provided for unit tests and single-DIMM experiments.
type DIMM struct {
	eng *sim.Engine
	cfg Config
	cyc cycles

	lsq   *LSQ
	rmw   *RMWBuffer
	buf   *AITBuffer
	trans *Translator
	wear  *WearLeveler
	med   *media.XPoint
	dramC *dram.Controller
	inj   *fault.Injector

	// rmwFree serializes the RMW buffer port.
	rmwFree sim.Cycle

	// lineShift and sectorShift are log2 of the AIT line and the 256B
	// sector (RMWBlock), which New checks are powers of two, as it checks
	// AITEntries: the address helpers below shift and mask. They share
	// draining's word.
	lineShift, sectorShift uint8

	// draining marks the LSQ drain engine as scheduled; drain is its parked
	// poll (see drainStep).
	draining bool
	drain    sim.Poll
	// popWake, when set, is the sender's parked retry that a pop wakes
	// (see WakeOnPop).
	popWake *sim.Poll
	// flushing forces drain regardless of age/occupancy thresholds;
	// flushWaits are the flushes waiting for the LSQ to empty.
	flushing   int
	flushWaits []*flushOp

	readsInFlight  int
	writesInFlight int // accepted into LSQ but not yet durable at AIT/media
	mediaInFlight  int // outstanding media accesses (fills + demand)

	// lazy is the optional Lazy cache optimization (nil when disabled).
	lazy *LazyCache
	// pretrans is the optional pre-translation table support (nil when
	// disabled); consulted by the Pre-translation read path.
	pretrans *PreTransTable

	stats Stats

	o    *obs.Obs
	comp string
	// histLSQWait records LSQ residency (enqueue -> drain pop) and histAIT
	// the full AIT operation latency (lookup through buffer/media service),
	// both in ns; nil when no Obs is attached so the hot path skips them.
	histLSQWait *obs.Histogram
	histAIT     *obs.Histogram

	// Recycled per-access records of the closure-free completion chains
	// (DESIGN.md §9).
	reads   sim.FreeList[readOp]
	aits    sim.FreeList[aitOp]
	medias  sim.FreeList[mediaOp]
	fills   sim.FreeList[fillOp]
	groups  sim.FreeList[groupOp]
	retries sim.FreeList[dramRetry]
	flushes sim.FreeList[flushOp]
}

// dramRegion layout inside the on-DIMM DRAM: translation table first, then
// the AIT data buffer.
const (
	tableEntryBytes = 8
	tableBase       = uint64(0)
	dataBase        = uint64(256 << 20) // leave generous room for the table
)

// New constructs a DIMM on eng with cfg (zero fields defaulted) and a
// deterministic seed for wear-leveling partner selection. It panics unless
// the AIT line, the RMW block, the AIT entry count, the LSQ combine block
// and the media's block, partition count and wear block are powers of two;
// every configuration the simulator builds has them so.
func New(eng *sim.Engine, cfg Config, seed uint64) *DIMM {
	cfg = cfg.withDefaults()
	log2("AIT entry count", uint64(cfg.AITEntries))
	cfg.Media.Functional = cfg.Media.Functional || cfg.Functional
	comp := cfg.ObsName
	if comp == "" {
		comp = "dimm"
	}
	if cfg.Obs != nil {
		cfg.Media.Obs = cfg.Obs
		cfg.Media.ObsName = comp + "/media"
		cfg.DRAM.Obs = cfg.Obs
		cfg.DRAM.ObsName = comp + "/dram"
	}
	med := media.New(eng, cfg.Media)
	trans := NewTranslator(cfg.AITLine, med.Config().Capacity)
	cyc := cfg.cycles()
	d := &DIMM{
		eng:   eng,
		cfg:   cfg,
		cyc:   cyc,
		lsq:   NewLSQ(cfg.LSQSlots, cfg.LSQCombineBlock),
		rmw:   NewRMWBuffer(cfg.RMWEntries),
		buf:   NewAITBuffer(cfg.AITEntries, cfg.AITWays, cfg.AITLine, cfg.RMWBlock),
		trans: trans,
		med:   med,
		dramC: dram.NewController(eng, cfg.DRAM),
		inj:   cfg.Injector,
	}
	d.lineShift, d.sectorShift = log2("AIT line", cfg.AITLine), log2("RMW block", cfg.RMWBlock)
	d.wear = NewWearLeveler(eng, med, trans, cfg.WearThreshold, cyc.migration, seed)
	d.drain.Init(eng, cyc.lsqEpoch, dimmDrainStep, d)
	if cfg.Obs != nil {
		d.o = cfg.Obs
		d.comp = comp
		d.wear.o = cfg.Obs
		d.wear.comp = comp + "/wear"
		o := cfg.Obs
		o.RegisterPtr(comp, "client_reads", &d.stats.ClientReads)
		o.RegisterPtr(comp, "client_writes", &d.stats.ClientWrites)
		o.RegisterPtr(comp, "lsq_forwards", &d.stats.LSQForwards)
		o.RegisterPtr(comp, "lsq_stalls", &d.stats.LSQStalls)
		o.RegisterPtr(comp, "rmw_partials", &d.stats.PartialRMW)
		o.RegisterPtr(comp, "ait_table_reads", &d.stats.TableReads)
		o.RegisterPtr(comp, "media_stalls", &d.stats.MediaStalls)
		o.RegisterPtr(comp, "media_poison", &d.stats.MediaPoison)
		o.RegisterPtr(comp, "fault_stalls", &d.stats.FaultStalls)
		o.RegisterFunc(comp, "lsq_merges", d.lsq.Merges)
		o.RegisterFunc(comp, "rmw_hits", d.rmw.Hits)
		o.RegisterFunc(comp, "rmw_misses", d.rmw.Misses)
		o.RegisterFunc(comp, "ait_hits", d.buf.Hits)
		o.RegisterFunc(comp, "ait_line_misses", d.buf.Misses)
		o.RegisterFunc(comp, "ait_sector_misses", d.buf.SectorMisses)
		o.RegisterFunc(d.wear.comp, "migrations", d.wear.Migrations)
		d.histLSQWait = o.Histogram(comp, "lsq_wait_ns", nil)
		d.histAIT = o.Histogram(comp, "ait_ns", nil)
		d.wear.histMig = o.Histogram(d.wear.comp, "migration_ns", nil)
	}
	return d
}

// Config returns the effective configuration.
func (d *DIMM) Config() Config { return d.cfg }

// Stats returns a snapshot of the counters (wear migrations included).
func (d *DIMM) Stats() Stats {
	s := d.stats
	s.LSQMerges = d.lsq.Merges()
	s.RMWHits = d.rmw.Hits()
	s.RMWMisses = d.rmw.Misses()
	s.AITHits = d.buf.Hits()
	s.AITLineMiss = d.buf.Misses()
	s.AITSectorMis = d.buf.SectorMisses()
	s.Migrations = d.wear.Migrations()
	return s
}

// Media exposes the media model (read-only use: wear and traffic counters).
func (d *DIMM) Media() *media.XPoint { return d.med }

// DRAM exposes the on-DIMM DRAM controller (command-trace verification).
func (d *DIMM) DRAM() *dram.Controller { return d.dramC }

// Wear exposes the wear-leveler (migration event analysis).
func (d *DIMM) Wear() *WearLeveler { return d.wear }

// LSQ exposes the on-DIMM load-store queue (property tests).
func (d *DIMM) LSQ() *LSQ { return d.lsq }

// Translator exposes the AIT translation state (property tests).
func (d *DIMM) Translator() *Translator { return d.trans }

// Busy reports in-flight work (reads, undrained writes, pending flushes).
func (d *DIMM) Busy() bool {
	return d.readsInFlight > 0 || d.writesInFlight > 0 || !d.lsq.Empty() || d.flushing > 0
}

// block aligns an address to the DIMM-internal 256B granularity.
func (d *DIMM) block(addr uint64) uint64 { return addr &^ (d.cfg.RMWBlock - 1) }

// page returns the AIT page number of an address.
func (d *DIMM) page(addr uint64) uint64 { return addr >> d.lineShift }

// sector returns the 256B sector index of addr within its AIT line.
func (d *DIMM) sector(addr uint64) int {
	return int((addr & (d.cfg.AITLine - 1)) >> d.sectorShift)
}

// tableAddr returns the on-DIMM DRAM address of a page's AIT entry.
func (d *DIMM) tableAddr(page uint64) uint64 { return tableBase + page*tableEntryBytes }

// dataAddr returns the on-DIMM DRAM address of a sector's buffered data.
// Lines are direct-placed by page so related sectors stay row-local.
func (d *DIMM) dataAddr(page uint64, sector int) uint64 {
	idx := page & uint64(d.cfg.AITEntries-1)
	return dataBase + idx<<d.lineShift + uint64(sector)<<d.sectorShift
}

// dramRetry is a DRAM access waiting out controller backpressure.
type dramRetry struct {
	d     *DIMM
	addr  uint64
	n     int
	write bool
	done  func(any)
	arg   any
}

// dramBurst schedules one n-burst access (n*64 contiguous bytes — a 256B
// AIT sector is 4 bursts) as a single DRAM transaction, calling done(arg)
// when its data completes and retrying every 24 cycles under backpressure.
func (d *DIMM) dramBurst(addr uint64, n int, write bool, done func(any), arg any) {
	if d.dramC.ScheduleN(addr, write, n, done, arg) {
		return
	}
	r := d.retries.Get()
	*r = dramRetry{d: d, addr: addr, n: n, write: write, done: done, arg: arg}
	d.eng.AfterFn(24, dimmDRAMRetry, r)
}

func dimmDRAMRetry(a any) {
	r := a.(*dramRetry)
	d := r.d
	if !d.dramC.ScheduleN(r.addr, r.write, r.n, r.done, r.arg) {
		d.eng.AfterFn(24, dimmDRAMRetry, r)
		return
	}
	d.retries.Put(r)
}

// mediaOp is one media access issued through the wear-leveler stall window.
type mediaOp struct {
	d          *DIMM
	cpuBlock   uint64
	mediaAddr  uint64
	write      bool
	background bool
	err        error // injected poison, drawn at issue
	done       func(any, error)
	arg        any
}

// mediaAccess performs one 256B demand media access through the
// wear-leveler stall window, calling done(arg, err) at completion (done may
// be nil). Reads may surface an injected uncorrectable media error (poison)
// through err; writes never do.
func (d *DIMM) mediaAccess(cpuBlock uint64, write bool, done func(any, error), arg any) {
	d.mediaAccessPri(cpuBlock, write, false, done, arg)
}

func (d *DIMM) mediaAccessPri(cpuBlock uint64, write, background bool, done func(any, error), arg any) {
	m := d.medias.Get()
	*m = mediaOp{d: d, cpuBlock: cpuBlock, write: write, background: background, done: done, arg: arg}
	d.mediaIssue(m)
}

func dimmMediaIssue(a any) {
	m := a.(*mediaOp)
	m.d.mediaIssue(m)
}

// mediaIssue starts m on the media, or re-arms it for the end of a
// migration stall covering its (re-translated) media address.
func (d *DIMM) mediaIssue(m *mediaOp) {
	mediaAddr := d.trans.ToMedia(m.cpuBlock)
	if until := d.wear.BusyUntil(mediaAddr); until > d.eng.Now() {
		d.stats.MediaStalls++
		d.eng.ScheduleFn(until, dimmMediaIssue, m)
		return
	}
	m.mediaAddr = mediaAddr
	// Poison is drawn at issue time: the access still occupies the media
	// (the ECC pipeline runs to completion) but delivers an error instead
	// of data.
	if !m.write {
		if m.err = d.inj.ReadPoison(mediaAddr); m.err != nil {
			d.stats.MediaPoison++
			if d.o.Active() {
				d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageMedia, Pos: obs.PosFault,
					Comp: d.comp, Addr: mediaAddr})
			}
		}
	}
	d.mediaInFlight++
	if m.background {
		d.med.AccessBG(mediaAddr, m.write, dimmMediaDone, m)
	} else {
		d.med.Access(mediaAddr, m.write, dimmMediaDone, m)
	}
}

func dimmMediaDone(a any) {
	m := a.(*mediaOp)
	d := m.d
	d.mediaInFlight--
	if m.write {
		d.wear.NoteWrite(m.mediaAddr)
	}
	done, arg, err := m.done, m.arg, m.err
	d.medias.Put(m)
	if done != nil {
		done(arg, err)
	}
}

// dimmWriteDone retires one internal write of the DIMM passed as arg;
// dimmWriteDoneErr is its media-continuation form.
func dimmWriteDone(a any)             { a.(*DIMM).writeDone() }
func dimmWriteDoneErr(a any, _ error) { a.(*DIMM).writeDone() }

// writeDone retires one internal write (writesInFlight). The completion
// that frees a slot under the cap wakes a drain parked on flow control, and
// the last one with the LSQ empty wakes the waiting flushes.
func (d *DIMM) writeDone() {
	d.writesInFlight--
	if d.writesInFlight == maxInternalWrites-1 {
		d.drain.Wake()
	}
	if d.writesInFlight == 0 && d.lsq.Empty() {
		for _, f := range d.flushWaits {
			f.poll.Wake()
		}
	}
}

// maxInternalWrites bounds LSQ-drain concurrency: the RMW buffer cannot
// source more outstanding operations than it has ports/entries, and the
// bound keeps internal traffic from swamping the AIT path.
const maxInternalWrites = 16

// maxFillBacklog bounds line-fill media traffic; demand accesses always
// proceed, and fills shed when the backlog saturates.
const maxFillBacklog = 32

// rmwSlot reserves the RMW buffer port and returns the cycle the operation
// may proceed.
func (d *DIMM) rmwSlot() sim.Cycle {
	at := d.eng.Now()
	if d.rmwFree > at {
		at = d.rmwFree
	}
	d.rmwFree = at + d.cyc.rmwPort
	return at
}

// ---------------------------------------------------------------- read path

// readOp is one client read (Read).
type readOp struct {
	d     *DIMM
	block uint64
	err   error
	done  func(any, error)
	arg   any
}

// Read requests the 64B line at addr; done(arg, err) fires when data is
// ready to move onto the bus back to the iMC. A non-nil err reports an
// uncorrectable media read (poison): the access completes with full timing
// but no data.
func (d *DIMM) Read(addr uint64, done func(any, error), arg any) {
	d.stats.ClientReads++
	d.readsInFlight++
	r := d.reads.Get()
	*r = readOp{d: d, block: d.block(addr), done: done, arg: arg}
	line := addr - addr%64

	// LSQ forwarding: pending store data is returned directly (data
	// fast-forward, the effect the RaW prober measures).
	if d.lsq.Contains(line) {
		d.stats.LSQForwards++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageLSQ, Pos: obs.PosHit,
				Comp: d.comp, Addr: addr})
		}
		d.eng.AfterFn(d.cyc.lsqLookup+d.cyc.rmwHit, dimmReadFinish, r)
		return
	}

	start := d.rmwSlot() + d.cyc.lsqLookup
	if d.rmw.Lookup(r.block) {
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosHit,
				Comp: d.comp, Addr: addr})
		}
		d.eng.ScheduleFn(start+d.cyc.rmwHit, dimmReadFinish, r)
		return
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosMiss,
			Comp: d.comp, Addr: addr})
	}

	// Lazy cache probe (optimization, §V-C): frequently written data can be
	// served from the small persistent write cache.
	if d.lazy != nil {
		if lat, hit := d.lazy.ReadProbe(r.block); hit {
			d.eng.ScheduleFn(start+lat, dimmReadFinish, r)
			return
		}
	}

	d.eng.ScheduleFn(start, dimmReadAIT, r)
}

func dimmReadAIT(a any) {
	r := a.(*readOp)
	r.d.aitRead(r.block, dimmReadFilled, r)
}

// dimmReadFilled continues a read once the AIT delivered its sector.
func dimmReadFilled(a any, err error) {
	r := a.(*readOp)
	d := r.d
	if err != nil {
		// Poisoned data is never installed in the RMW buffer.
		r.err = err
	} else {
		d.installRMW(r.block, false)
	}
	d.eng.AfterFn(d.cyc.rmwHit, dimmReadFinish, r)
}

func dimmReadFinish(a any) {
	r := a.(*readOp)
	d := r.d
	done, arg, err := r.done, r.arg, r.err
	d.reads.Put(r)
	d.readsInFlight--
	done(arg, err)
}

// installRMW inserts a block into the RMW buffer, handling eviction.
func (d *DIMM) installRMW(block uint64, dirty bool) {
	ev, evicted := d.rmw.Insert(block)
	if dirty {
		d.rmw.MarkDirty(block)
	}
	if evicted && ev.Dirty {
		// Write-back mode only: push the displaced line to the AIT.
		d.writesInFlight++
		d.aitWrite(ev.Block, dimmWriteDone, d)
	}
}

// aitOp is one AIT operation (aitRead or aitWrite): exactly one of rdone
// and wdone is set.
type aitOp struct {
	d      *DIMM
	block  uint64
	page   uint64
	sector int
	way    int       // the page's AIT buffer way on a read miss (FillSector)
	start  sim.Cycle // for the histAIT latency
	rdone  func(any, error)
	wdone  func(any)
	arg    any
}

func (d *DIMM) newAITOp(block uint64) *aitOp {
	op := d.aits.Get()
	*op = aitOp{d: d, block: block, page: d.page(block), sector: d.sector(block), start: d.eng.Now()}
	return op
}

// aitDone finishes an AIT operation: record its latency, recycle the record,
// continue with the caller's completion.
func (d *DIMM) aitDone(op *aitOp, err error) {
	if d.histAIT != nil {
		d.histAIT.Observe(uint64(float64(d.eng.Now()-op.start) / dram.CyclesPerNano))
	}
	rdone, wdone, arg := op.rdone, op.wdone, op.arg
	d.aits.Put(op)
	if rdone != nil {
		rdone(arg, err)
	} else {
		wdone(arg)
	}
}

// dimmAITDone is the DRAM continuation that ends an AIT operation (a sector
// hit read, or a write-back buffer update).
func dimmAITDone(a any) {
	op := a.(*aitOp)
	op.d.aitDone(op, nil)
}

// aitRead fetches the 256B sector containing block from the AIT: a
// translation-table DRAM read, then either an AIT-buffer DRAM read (hit) or
// a media access with critical-sector-first line fill (miss), then
// done(arg, err). An injected AIT stall spike (controller firmware hiccup)
// stretches the lookup latency.
func (d *DIMM) aitRead(block uint64, done func(any, error), arg any) {
	op := d.newAITOp(block)
	op.rdone, op.arg = done, arg
	d.stats.TableReads++
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosIssue,
			Comp: d.comp, Addr: block})
	}
	lookup := d.cyc.aitLookup
	if stall := d.inj.AITStall(); stall > 0 {
		d.stats.FaultStalls++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosFault,
				Comp: d.comp, Addr: block, Arg: uint64(stall)})
		}
		lookup += stall
	}
	d.eng.AfterFn(lookup, dimmAITReadTable, op)
}

func dimmAITReadTable(a any) {
	op := a.(*aitOp)
	op.d.dramBurst(op.d.tableAddr(op.page), 1, false, dimmAITReadLookup, op)
}

// dimmAITReadLookup continues aitRead after the translation-table access.
func dimmAITReadLookup(a any) {
	op := a.(*aitOp)
	d := op.d
	page, sector := op.page, op.sector
	way, sectorHit := d.buf.LookupSector(page, sector)
	if d.o.Active() {
		pos := obs.PosMiss
		if sectorHit {
			pos = obs.PosHit
		}
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: pos,
			Comp: d.comp, Addr: op.block})
	}
	if sectorHit {
		d.dramBurst(d.dataAddr(page, sector), int(d.cfg.RMWBlock/64), false, dimmAITDone, op)
		return
	}
	if way < 0 {
		way = d.allocateAITLine(page)
	}
	op.way = way
	// Critical sector from media, following sectors in the background.
	d.mediaAccess(op.block, false, dimmAITReadMedia, op)
	if d.cfg.ReadFillLine {
		d.fillLine(page, way, sector)
	}
}

// dimmAITReadMedia ends an AIT read miss once the critical sector arrives.
func dimmAITReadMedia(a any, err error) {
	op := a.(*aitOp)
	d := op.d
	if err == nil {
		// The fetched sector is also written into the DRAM buffer; that
		// write is off the critical path. A poisoned sector has nothing
		// valid to install or buffer.
		d.buf.FillSector(op.page, op.way, op.sector)
		d.dramBurst(d.dataAddr(op.page, op.sector), int(d.cfg.RMWBlock/64), true, nil, nil)
	}
	d.aitDone(op, err)
}

// allocateAITLine makes room for page in the AIT buffer, writing back any
// dirty sectors of the victim (write-back mode only), and returns the way
// the line went to.
func (d *DIMM) allocateAITLine(page uint64) int {
	way, ev, dirty := d.buf.Allocate(page)
	if !dirty {
		return way
	}
	for s := 0; s < int(d.cfg.AITLine/d.cfg.RMWBlock); s++ {
		if ev.DirtySector&(1<<s) == 0 {
			continue
		}
		victimBlock := ev.Page*d.cfg.AITLine + uint64(s)*d.cfg.RMWBlock
		d.writesInFlight++
		d.mediaAccess(victimBlock, true, dimmWriteDoneErr, d)
	}
	return way
}

// fillOp is one background sector fill of fillLine.
type fillOp struct {
	d      *DIMM
	page   uint64
	way    int // the line's way when the fill was issued
	sector int
}

// fillLine fetches the rest of a 4KB AIT line from media in the background
// (critical sector first, the other sectors across the fill ports — the
// whole-line fill LENS's amplification probe observes). Fills shed when the
// backlog saturates.
func (d *DIMM) fillLine(page uint64, way, except int) {
	missing := d.buf.missingMask(page, way)
	for s := 0; missing != 0; s, missing = s+1, missing>>1 {
		if missing&1 == 0 || s == except {
			continue
		}
		if d.mediaInFlight >= maxFillBacklog {
			return
		}
		f := d.fills.Get()
		*f = fillOp{d: d, page: page, way: way, sector: s}
		d.mediaAccessPri(page*d.cfg.AITLine+uint64(s)*d.cfg.RMWBlock, false, true, dimmFillDone, f)
	}
}

func dimmFillDone(a any, err error) {
	f := a.(*fillOp)
	d, page, way, s := f.d, f.page, f.way, f.sector
	d.fills.Put(f)
	if err != nil {
		// Poisoned speculative fill: drop it silently — the sector stays
		// invalid and a later demand read surfaces the fault.
		return
	}
	d.buf.FillSector(page, way, s)
	d.dramBurst(d.dataAddr(page, s), int(d.cfg.RMWBlock/64), true, nil, nil)
}

// aitWrite pushes one full 256B block to the AIT: table read, buffer update
// (DRAM write), and — in write-through mode — a media write that advances
// wear. done(arg) fires when the block is durable at the media
// (write-through) or buffered (write-back).
func (d *DIMM) aitWrite(block uint64, done func(any), arg any) {
	op := d.newAITOp(block)
	op.wdone, op.arg = done, arg
	d.stats.TableReads++
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosIssue,
			Write: true, Comp: d.comp, Addr: block})
	}
	d.eng.AfterFn(d.cyc.aitLookup, dimmAITWriteTable, op)
}

func dimmAITWriteTable(a any) {
	op := a.(*aitOp)
	op.d.dramBurst(op.d.tableAddr(op.page), 1, false, dimmAITWriteLookup, op)
}

// dimmAITWriteLookup continues aitWrite after the translation-table access.
func dimmAITWriteLookup(a any) {
	op := a.(*aitOp)
	d := op.d
	if !d.buf.Resident(op.page) {
		d.allocateAITLine(op.page)
	}
	d.buf.WriteSector(op.page, op.sector, !d.cfg.WriteThrough)
	burst := int(d.cfg.RMWBlock / 64)
	if d.cfg.WriteThrough {
		d.dramBurst(d.dataAddr(op.page, op.sector), burst, true, nil, nil)
		d.mediaAccess(op.block, true, dimmAITWritten, op)
		return
	}
	d.dramBurst(d.dataAddr(op.page, op.sector), burst, true, dimmAITDone, op)
}

// dimmAITWritten ends a write-through AIT write at media completion. Writes
// never fault in the model; the error is discarded.
func dimmAITWritten(a any, _ error) {
	op := a.(*aitOp)
	op.d.aitDone(op, nil)
}

// --------------------------------------------------------------- write path

// AcceptWrite offers a 64B store to the LSQ. It returns false when the LSQ
// is full (the iMC retries; that backpressure is the 4KB store knee). data,
// when non-nil, is committed to the functional store.
func (d *DIMM) AcceptWrite(addr uint64, data []byte) bool {
	line := addr - addr%64
	merged, ok := d.lsq.Accept(line, d.eng.Now())
	if !ok {
		d.stats.LSQStalls++
		d.kickDrain()
		return false
	}
	d.stats.ClientWrites++
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageLSQ, Pos: obs.PosEnqueue,
			Write: true, Comp: d.comp, Addr: addr})
	}
	if data != nil && d.cfg.Functional {
		d.med.WriteData(d.trans.ToMedia(addr), data)
	}
	d.kickDrain()
	if !merged && d.lsq.Len() == d.cfg.LSQHighWater+1 {
		d.drain.Wake() // occupancy just crossed high water
	}
	return true
}

// WakeOnPop registers p, a sender's parked retry of a store AcceptWrite
// refused, to be woken whenever the LSQ pops a group. A pop is the only
// way a full LSQ gains room, so the sender need not offer the line again
// until then; it counts the offers it skipped with NoteRefused.
func (d *DIMM) WakeOnPop(p *sim.Poll) { d.popWake = p }

// NoteRefused counts n offers of a store that a full LSQ would have
// refused, exactly as n refused AcceptWrite calls would: while the LSQ is
// full its drain is running, so a refusal only counts a stall.
func (d *DIMM) NoteRefused(n uint64) { d.stats.LSQStalls += n }

// AcceptWriteData commits functional contents through the current
// translation without timing effects; the iMC uses it when the timing path
// tracks only addresses (WPQ entries carry no payload in the model).
func (d *DIMM) AcceptWriteData(addr uint64, data []byte) {
	if data != nil && d.cfg.Functional {
		d.med.WriteData(d.trans.ToMedia(addr), data)
	}
}

// dimmDrainStep adapts drainStep to the engine's allocation-free callback
// form (ScheduleFn and the drain's Poll): the drain engine runs for the
// whole life of a store burst, so a closure per hop would be a steady
// allocation stream.
func dimmDrainStep(a any) { a.(*DIMM).drainStep() }

// kickDrain starts the LSQ drain engine if idle.
func (d *DIMM) kickDrain() {
	if d.draining {
		return
	}
	d.draining = true
	d.parkDrain()
}

// parkDrain sleeps the drain engine for epochs, parked until a tick can
// drain. Under the internal-write cap only a completion can change that
// (writeDone wakes it). Otherwise the next tick is due at once during a
// flush or above high water, and else when the oldest entry comes of age,
// or earlier if occupancy crosses high water (AcceptWrite) or a flush
// starts (Flush). While parked nothing pops the LSQ, so the oldest entry
// stays put, and a merge into it only delays its age.
func (d *DIMM) parkDrain() {
	due := sim.Never
	if d.writesInFlight < maxInternalWrites {
		due = 0
		if d.flushing == 0 && d.lsq.Len() <= d.cfg.LSQHighWater {
			due = d.lsq.OldestEnq() + d.cyc.lsqAge
		}
	}
	d.drain.Park(d.cyc.lsqEpoch, due)
}

// drainStep is the LSQ scheduling epoch: drain groups while the occupancy
// is above high water, an entry is over-age, or a flush is in progress;
// otherwise sleep one epoch (parked: see parkDrain).
func (d *DIMM) drainStep() {
	if d.lsq.Empty() {
		d.draining = false
		return
	}
	now := d.eng.Now()
	mustDrain := d.flushing > 0 ||
		d.lsq.Len() > d.cfg.LSQHighWater ||
		d.lsq.OldestAge(now) >= d.cyc.lsqAge
	// Flow control: the drain engine never runs ahead of what the RMW/AIT
	// path can absorb, regardless of the drain trigger.
	if !mustDrain || d.writesInFlight >= maxInternalWrites {
		d.parkDrain()
		return
	}
	g, ok := d.lsq.PopGroup()
	if !ok {
		d.draining = false
		return
	}
	if d.popWake != nil {
		d.popWake.Wake()
	}
	if d.histLSQWait != nil {
		if now > g.Enq {
			d.histLSQWait.Observe(uint64(float64(now-g.Enq) / dram.CyclesPerNano))
		} else {
			d.histLSQWait.Observe(0)
		}
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: now, Stage: obs.StageLSQ, Pos: obs.PosDequeue,
			Write: true, Comp: d.comp, Addr: g.Block})
	}
	d.writesInFlight++
	d.processGroup(g, dimmWriteDone, d)
	// Pace the next drain decision by the RMW port.
	next := d.rmwFree
	if next <= now {
		next = now + 1
	}
	d.eng.ScheduleFn(next, dimmDrainStep, d)
}

// groupOp is one drained LSQ group on its way into the RMW buffer.
type groupOp struct {
	d        *DIMM
	block    uint64
	complete bool
	done     func(any)
	arg      any
}

// processGroup applies one combined write group to the RMW buffer, then
// calls done(arg). Partial groups against absent lines perform the
// read-modify-write fill first.
func (d *DIMM) processGroup(g Group, done func(any), arg any) {
	at := d.rmwSlot()
	op := d.groups.Get()
	*op = groupOp{d: d, block: g.Block, complete: g.Complete(d.cfg.RMWBlock), done: done, arg: arg}
	d.eng.ScheduleFn(at, dimmGroupApply, op)
}

func dimmGroupApply(a any) {
	op := a.(*groupOp)
	d := op.d
	// Lazy cache intercept: hot blocks are absorbed by the persistent
	// write cache, skipping AIT/media wear entirely.
	if d.lazy != nil && d.lazy.WriteProbe(op.block) {
		done, arg := op.done, op.arg
		d.groups.Put(op)
		d.eng.AfterFn(d.lazy.writeLat, done, arg)
		return
	}
	if !op.complete && !d.rmw.Peek(op.block) {
		// Read-modify-write: fetch the block, then apply. A poisoned
		// fill does not block the write: the store overwrites the
		// unreadable sector (how poison is actually cleared on Optane).
		d.stats.PartialRMW++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosMiss,
				Write: true, Comp: d.comp, Addr: op.block})
		}
		d.aitRead(op.block, dimmGroupFilled, op)
		return
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosHit,
			Write: true, Comp: d.comp, Addr: op.block})
	}
	d.groupInstall(op)
}

func dimmGroupFilled(a any, _ error) {
	op := a.(*groupOp)
	op.d.groupInstall(op)
}

// groupInstall applies the group's block to the RMW buffer and forwards it.
func (d *DIMM) groupInstall(op *groupOp) {
	block, done, arg := op.block, op.done, op.arg
	d.groups.Put(op)
	d.installRMW(block, !d.cfg.WriteThrough)
	d.forwardWrite(block, done, arg)
}

// forwardWrite propagates a combined block write beyond the RMW buffer
// according to the write policy, then calls done(arg).
func (d *DIMM) forwardWrite(block uint64, done func(any), arg any) {
	if d.cfg.WriteThrough {
		d.aitWrite(block, done, arg)
		return
	}
	d.rmw.MarkDirty(block)
	d.eng.AfterFn(d.cyc.rmwHit, done, arg)
}

// ---------------------------------------------------------------- flush

// flushOp is one Flush waiting, parked on the epoch grid, for the LSQ to
// empty and every internal write to finish.
type flushOp struct {
	d    *DIMM
	poll sim.Poll
	done func(any)
	arg  any
}

// Flush forces the LSQ to drain and calls done(arg) once every accepted
// write is durable (the mfence semantics the paper observed: mfence flushes
// the LSQ). The check runs one cycle after the call, then every epoch;
// its ticks stay parked until writeDone wakes them.
func (d *DIMM) Flush(done func(any), arg any) {
	d.flushing++
	d.kickDrain()
	d.drain.Wake()
	f := d.flushes.Get()
	*f = flushOp{d: d, done: done, arg: arg}
	f.poll.Init(d.eng, d.cyc.lsqEpoch, dimmFlushPoll, f)
	due := sim.Never
	if d.flushed() {
		due = 0
	}
	f.poll.Park(1, due)
	d.flushWaits = append(d.flushWaits, f)
}

// flushed reports whether every accepted write is durable.
func (d *DIMM) flushed() bool { return d.lsq.Empty() && d.writesInFlight == 0 }

func dimmFlushPoll(a any) {
	f := a.(*flushOp)
	d := f.d
	if !d.flushed() {
		f.poll.Park(d.cyc.lsqEpoch, sim.Never)
		return
	}
	d.flushing--
	i := slices.Index(d.flushWaits, f)
	d.flushWaits = slices.Delete(d.flushWaits, i, i+1)
	done, arg := f.done, f.arg
	d.flushes.Put(f)
	done(arg)
}

// ReadData returns n bytes at addr from the functional store through the
// current translation (test support).
func (d *DIMM) ReadData(addr uint64, n int) []byte {
	return d.med.ReadData(d.trans.ToMedia(addr), n)
}

// AdoptPersistent transplants the persistent remnants of a powered-off DIMM
// into this (freshly constructed) one: the AIT translation table and the
// media image plus wear counters. Volatile state — LSQ, RMW buffer, AIT data
// buffer, in-flight bookkeeping — is deliberately not carried: it is exactly
// what a power failure truncates.
func (d *DIMM) AdoptPersistent(old *DIMM) {
	d.trans.AdoptFrom(old.trans)
	d.med.AdoptPersistent(old.med)
}

// ----------------------------------------------------- standalone adapter

// System adapts a single DIMM to mem.System for unit tests and single-DIMM
// experiments (no iMC in front: reads/writes hit the LSQ directly).
type System struct {
	D   *DIMM
	eng *sim.Engine

	// readDone / writeDone complete a *mem.Request passed as arg (writeDone
	// also ends fences); bound once so submitting allocates nothing.
	readDone  func(any, error)
	writeDone func(any)
}

// NewSystem builds a standalone single-DIMM system.
func NewSystem(cfg Config, seed uint64) *System {
	eng := sim.NewEngine()
	s := &System{D: New(eng, cfg, seed), eng: eng}
	s.readDone = func(a any, err error) { a.(*mem.Request).CompleteErr(s.eng.Now(), err) }
	s.writeDone = func(a any) { a.(*mem.Request).Complete(s.eng.Now()) }
	return s
}

// Engine implements mem.System.
func (s *System) Engine() *sim.Engine { return s.eng }

// CyclesPerNano implements mem.System.
func (s *System) CyclesPerNano() float64 { return dram.CyclesPerNano }

// Drained implements mem.System.
func (s *System) Drained() bool { return !s.D.Busy() }

// Submit implements mem.System.
func (s *System) Submit(r *mem.Request) bool {
	switch r.Op {
	case mem.OpRead:
		r.Issued = s.eng.Now()
		s.D.Read(r.Addr, s.readDone, r)
		return true
	case mem.OpWrite, mem.OpWriteNT, mem.OpClwb:
		if !s.D.AcceptWrite(r.Addr, r.Data) {
			return false
		}
		r.Issued = s.eng.Now()
		// Stores are posted: they complete on LSQ acceptance.
		s.eng.AfterFn(1, s.writeDone, r)
		return true
	case mem.OpFence:
		r.Issued = s.eng.Now()
		s.D.Flush(s.writeDone, r)
		return true
	default:
		return false
	}
}
