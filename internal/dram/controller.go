package dram

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// bankState tracks one bank's open row and per-command earliest-issue times.
type bankState struct {
	open    bool
	openRow uint64
	// Earliest cycles each command class may next issue to this bank.
	nextACT sim.Cycle
	nextPRE sim.Cycle
	nextRW  sim.Cycle
	// lastCol tracks the bank group for tCCD decisions (kept in rankState).
}

// rankState tracks rank-wide constraints: tRRD/tFAW activation pacing,
// write-to-read turnaround and refresh.
type rankState struct {
	lastACTs    []sim.Cycle // up to 4 most recent ACT times (tFAW window)
	nextACT     sim.Cycle   // tRRD pacing
	nextRD      sim.Cycle   // tWTR turnaround
	nextRefresh sim.Cycle
}

// pending is a queued access: 40 bytes, decoded into its coordinates only
// when the scheduler looks at it. bursts is the number of back-to-back
// column bursts the access occupies (1 for a 64B access; an Optane AIT 256B
// sector access uses 4). The access completes by calling done(arg) (done
// may be nil); a mem.Request from Submit rides as the arg of the
// controller's reqDone.
type pending struct {
	done   func(any)
	arg    any
	addr   uint64
	bursts int32
	write  bool
}

// completion is a serviced access's continuation, held until its data phase
// ends.
type completion struct {
	done func(any)
	arg  any
}

// Stats counts controller activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	RowConf    uint64 // row conflicts (had to close another row)
	Refreshes  uint64
	DataCycles sim.Cycle // cycles the data bus was occupied
}

// Controller is one DRAM channel: a request queue, bank/rank state, and a
// command scheduler. It implements mem.System for standalone use and exposes
// Schedule for composition inside larger models (iMC, NVDIMM).
type Controller struct {
	eng *sim.Engine
	cfg Config
	// queue holds the accepted accesses not yet serviced, oldest first: at
	// most cfg.QueueDepth of them, and FR-FCFS may take any one.
	queue []pending

	banks []bankState
	ranks []rankState

	// busFree is the earliest cycle the shared data bus is free.
	busFree sim.Cycle
	// lastBurstBG/lastBurstAt implement tCCD_L vs tCCD_S spacing.
	lastBurstBG int
	lastBurstAt sim.Cycle
	haveBurst   bool

	// cmds is the recorded command trace when cfg.TapCommands is set.
	cmds []Cmd

	// serviced holds the completions of the accesses whose commands have
	// issued, in service order, until their data phase ends. Data phases
	// are serialized on the bus — each access's data starts no earlier than
	// busFree, which is at least every earlier access's data end — so
	// completions fall due in service order and one FIFO drained by
	// ctrlComplete replaces a closure per access. It pops at servicedHead
	// and moves its live entries to the front when it fills, so its memory
	// is bounded by the accesses in flight, not by the stream's length.
	serviced     []completion
	servicedHead int
	// passive holds a passive slot at the data-end cycle of each serviced
	// access whose continuation is nil, in place of a ctrlComplete that
	// would only end it (DESIGN.md §9 "Passive slots"). Such an access
	// counts here, not in serviced, until its slot is passed.
	passive sim.Lane
	// reqDone completes the *mem.Request passed as its arg: the
	// continuation of every access Submit queues, bound by the first
	// Submit (the composed models only Schedule).
	reqDone func(any)

	busy bool

	stats Stats

	// histAccess records per-access data-phase duration in ns (nil without
	// an attached Obs, cfg.Obs, which knows the controller as cfg.ObsName).
	histAccess *obs.Histogram
}

// NewController returns a controller on eng with cfg (zero fields
// defaulted). It panics unless every dimension of cfg.Geometry is a power of
// two, which the address map's shifts and masks need; every geometry the
// simulator builds is one.
func NewController(eng *sim.Engine, cfg Config) *Controller {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 32
	}
	if cfg.AccessBytes == 0 {
		cfg.AccessBytes = 64
	}
	if cfg.Geometry.Ranks == 0 {
		cfg.Geometry = DefaultGeometry()
	}
	if !cfg.Geometry.powerOfTwo() {
		panic(fmt.Sprintf("dram: geometry %+v is not a power of two in every dimension", cfg.Geometry))
	}
	if cfg.Timing.TCL == 0 {
		cfg.Timing = DDR42666()
	}
	c := &Controller{
		eng:   eng,
		cfg:   cfg,
		banks: make([]bankState, cfg.Geometry.totalBanks()),
		ranks: make([]rankState, cfg.Geometry.Ranks),
	}
	c.passive.Init(eng, ctrlComplete)
	for i := range c.ranks {
		c.ranks[i].nextRefresh = cfg.Timing.TREFI
	}
	if o := cfg.Obs; o != nil {
		if c.cfg.ObsName == "" {
			c.cfg.ObsName = "dram"
		}
		comp := c.cfg.ObsName
		o.RegisterPtr(comp, "reads", &c.stats.Reads)
		o.RegisterPtr(comp, "writes", &c.stats.Writes)
		o.RegisterPtr(comp, "row_hits", &c.stats.RowHits)
		o.RegisterPtr(comp, "row_misses", &c.stats.RowMisses)
		o.RegisterPtr(comp, "row_conflicts", &c.stats.RowConf)
		o.RegisterPtr(comp, "refreshes", &c.stats.Refreshes)
		o.RegisterFunc(comp, "data_cycles", func() uint64 { return uint64(c.stats.DataCycles) })
		c.histAccess = o.Histogram(comp, "access_ns", nil)
	}
	return c
}

// Engine implements mem.System.
func (c *Controller) Engine() *sim.Engine { return c.eng }

// CyclesPerNano implements mem.System.
func (c *Controller) CyclesPerNano() float64 { return CyclesPerNano }

// Drained implements mem.System: nothing is queued, and every serviced
// access has reached its data-end cycle.
func (c *Controller) Drained() bool {
	return len(c.queue) == 0 && c.servicedHead == len(c.serviced) && c.passive.Pending() == 0
}

// PendingSlots returns how many serviced accesses without a continuation
// have not yet reached their data-end cycle.
func (c *Controller) PendingSlots() int { return c.passive.Pending() }

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// Commands returns the recorded command trace (TapCommands must be set).
// The slice is owned by the controller; callers must not mutate it.
func (c *Controller) Commands() []Cmd { return c.cmds }

// Submit implements mem.System: enqueue a request, false on backpressure.
// Requests must fit within one burst (split larger requests with
// mem.LineSpan before submitting).
func (c *Controller) Submit(r *mem.Request) bool {
	if r.Op == mem.OpFence {
		// A bare DRAM channel has no write-pending buffering beyond the
		// queue; a fence completes when the channel drains.
		c.completeWhenDrained(r)
		return true
	}
	if c.full() {
		return false
	}
	r.Issued = c.eng.Now()
	if c.reqDone == nil {
		c.reqDone = func(a any) { a.(*mem.Request).Complete(c.eng.Now()) }
	}
	c.queue = append(c.queue, pending{done: c.reqDone, arg: r, addr: r.Addr, bursts: 1,
		write: r.Op.IsWrite() || r.Op == mem.OpClwb})
	c.kick()
	return true
}

// Schedule is the composition entry point: time one single-burst access at
// addr and call done(arg) when its data completes (done may be nil). It
// bypasses mem.Request bookkeeping.
func (c *Controller) Schedule(addr uint64, write bool, done func(any), arg any) bool {
	return c.ScheduleN(addr, write, 1, done, arg)
}

// ScheduleN times one access of n back-to-back bursts (n*64 contiguous
// bytes within one row) as a single queue entry, calling done(arg) when its
// data completes. It reports false, with no side effect, when the queue is
// full.
func (c *Controller) ScheduleN(addr uint64, write bool, n int, done func(any), arg any) bool {
	if c.full() {
		return false
	}
	if n < 1 {
		n = 1
	}
	c.queue = append(c.queue, pending{done: done, arg: arg, addr: addr, bursts: int32(n), write: write})
	c.kick()
	return true
}

// full reports whether the request queue is at its depth.
func (c *Controller) full() bool { return len(c.queue) >= c.cfg.QueueDepth }

func (c *Controller) completeWhenDrained(r *mem.Request) {
	r.Issued = c.eng.Now()
	if c.Drained() {
		c.eng.After(1, func() { r.Complete(c.eng.Now()) })
		return
	}
	// Poll at the bus-free horizon; cheap and always makes progress because
	// pending work strictly advances busFree.
	c.eng.After(c.cfg.Timing.TBurst, func() { c.completeWhenDrained(r) })
}

// ctrlServiceNext adapts serviceNext to the engine's allocation-free
// recurring callback form: the scheduler loop re-arms itself once per
// request, so method-value closures here would allocate per access.
func ctrlServiceNext(a any) { a.(*Controller).serviceNext() }

// ctrlComplete fires at an access's data-end cycle and completes the oldest
// serviced access with a continuation, which is the one due (see
// Controller.serviced).
func ctrlComplete(a any) {
	c := a.(*Controller)
	p := c.serviced[c.servicedHead]
	c.serviced[c.servicedHead] = completion{}
	c.servicedHead++
	if c.servicedHead == len(c.serviced) {
		c.serviced, c.servicedHead = c.serviced[:0], 0
	}
	p.done(p.arg)
}

// kick schedules the scheduler loop if it is not already running.
func (c *Controller) kick() {
	if c.busy {
		return
	}
	c.busy = true
	c.eng.AfterFn(0, ctrlServiceNext, c)
}

// pickNext selects the next queued request index per policy.
func (c *Controller) pickNext() int {
	if c.cfg.Policy == FCFS || len(c.queue) == 1 {
		return 0
	}
	// FR-FCFS: oldest row hit first, else oldest.
	g := &c.cfg.Geometry
	for i := range c.queue {
		coord := g.MapAddr(c.queue[i].addr)
		b := &c.banks[g.bankIndex(coord)]
		if b.open && b.openRow == coord.Row {
			return i
		}
	}
	return 0
}

// serviceNext issues the full command sequence for one request, reserves the
// involved resources, and schedules its completion. It then re-arms itself
// at the cycle the command bus frees up, overlapping bank timing of
// subsequent requests.
func (c *Controller) serviceNext() {
	if len(c.queue) == 0 {
		c.busy = false
		return
	}
	i := c.pickNext()
	p := c.queue[i]
	last := len(c.queue) - 1
	copy(c.queue[i:], c.queue[i+1:])
	c.queue[last] = pending{}
	c.queue = c.queue[:last]
	now := c.eng.Now()
	t := &c.cfg.Timing
	g := &c.cfg.Geometry
	coord := g.MapAddr(p.addr)
	b := &c.banks[g.bankIndex(coord)]
	rk := &c.ranks[coord.Rank]

	// Refresh: if the refresh deadline passed, precharge all open banks of
	// the rank, issue REF, and pay tRFC before further activates.
	if c.cfg.RefreshEnabled {
		for now >= rk.nextRefresh {
			refAt := rk.nextRefresh
			lo := coord.Rank * g.BankGroups * g.Banks
			hi := lo + g.BankGroups*g.Banks
			for i := lo; i < hi; i++ {
				bb := &c.banks[i]
				if !bb.open {
					continue
				}
				preAt := maxCycle(refAt, bb.nextPRE)
				bg := (i - lo) / g.Banks
				bk := (i - lo) % g.Banks
				c.emit(Cmd{At: preAt, Kind: CmdPRE,
					Coord: Coord{Rank: coord.Rank, BankGroup: bg, Bank: bk}})
				bb.open = false
				bb.nextACT = maxCycle(bb.nextACT, preAt+t.TRP)
				if refAt < preAt+t.TRP {
					refAt = preAt + t.TRP
				}
			}
			c.emit(Cmd{At: refAt, Kind: CmdREF, Coord: Coord{Rank: coord.Rank}})
			c.stats.Refreshes++
			for i := lo; i < hi; i++ {
				bb := &c.banks[i]
				if bb.nextACT < refAt+t.TRFC {
					bb.nextACT = refAt + t.TRFC
				}
			}
			rk.nextRefresh += t.TREFI
		}
	}

	cursor := now

	// Row conflict: precharge the open row first.
	if b.open && b.openRow != coord.Row {
		preAt := maxCycle(cursor, b.nextPRE)
		c.emit(Cmd{At: preAt, Kind: CmdPRE, Coord: coord})
		b.open = false
		b.nextACT = maxCycle(b.nextACT, preAt+t.TRP)
		cursor = preAt
		c.stats.RowConf++
	}

	// Activate if closed.
	if !b.open {
		actAt := maxCycle(cursor, b.nextACT)
		actAt = maxCycle(actAt, rk.nextACT)
		// tFAW: at most 4 ACTs in any TFAW window per rank.
		if len(rk.lastACTs) == 4 {
			if w := rk.lastACTs[0] + t.TFAW; actAt < w {
				actAt = w
			}
		}
		c.emit(Cmd{At: actAt, Kind: CmdACT, Coord: coord})
		rk.nextACT = actAt + t.TRRD
		// Slide the window in place: re-slicing off the front would walk
		// the backing array forward and reallocate every few activates.
		if len(rk.lastACTs) == 4 {
			copy(rk.lastACTs, rk.lastACTs[1:])
			rk.lastACTs[3] = actAt
		} else {
			rk.lastACTs = append(rk.lastACTs, actAt)
		}
		b.open = true
		b.openRow = coord.Row
		b.nextRW = maxCycle(b.nextRW, actAt+t.TRCD)
		// tRAS: earliest PRE after this ACT.
		b.nextPRE = maxCycle(b.nextPRE, actAt+t.TRAS)
		cursor = actAt
		c.stats.RowMisses++
	} else {
		c.stats.RowHits++
	}

	// Column command: respect bank readiness, bus occupancy, and burst
	// spacing (tCCD_L within a bank group, tCCD_S across).
	rwAt := maxCycle(cursor, b.nextRW)
	// Data bus: this access's first data beat must not start before the bus
	// frees from the previous burst.
	dataLat := t.TCL
	if p.write {
		dataLat = t.TWL
	}
	if c.busFree > dataLat {
		rwAt = maxCycle(rwAt, c.busFree-dataLat)
	}
	if c.haveBurst {
		gap := t.TCCDS
		if coord.BankGroup == c.lastBurstBG {
			gap = t.TCCD
		}
		rwAt = maxCycle(rwAt, c.lastBurstAt+gap)
	}
	if !p.write {
		rwAt = maxCycle(rwAt, rk.nextRD)
	}

	bursts := sim.Cycle(p.bursts)
	var dataStart, dataEnd sim.Cycle
	if p.write {
		c.emit(Cmd{At: rwAt, Kind: CmdWR, Coord: coord})
		dataStart = rwAt + t.TWL
		dataEnd = dataStart + bursts*t.TBurst
		// Write recovery gates the next PRE; tWTR gates the next read.
		b.nextPRE = maxCycle(b.nextPRE, dataEnd+t.TWR)
		rk.nextRD = maxCycle(rk.nextRD, dataEnd+t.TWTR)
		c.stats.Writes++
	} else {
		c.emit(Cmd{At: rwAt, Kind: CmdRD, Coord: coord})
		dataStart = rwAt + t.TCL
		dataEnd = dataStart + bursts*t.TBurst
		b.nextPRE = maxCycle(b.nextPRE, rwAt+t.TRTP)
		c.stats.Reads++
	}
	c.haveBurst = true
	c.lastBurstBG = coord.BankGroup
	// Multi-burst requests hold the column pipeline until their last burst.
	c.lastBurstAt = rwAt + (bursts-1)*t.TBurst
	c.busFree = maxCycle(c.busFree, dataEnd)
	c.stats.DataCycles += bursts * t.TBurst

	// Closed-page policy: precharge as soon as legal after the access.
	if c.cfg.ClosedPage {
		preAt := b.nextPRE
		c.emit(Cmd{At: preAt, Kind: CmdPRE, Coord: coord})
		b.open = false
		b.nextACT = maxCycle(b.nextACT, preAt+t.TRP)
	}

	if c.histAccess != nil {
		c.histAccess.Observe(accessNs(dataEnd - rwAt))
	}
	if o := c.cfg.Obs; o.Active() {
		o.Emit(obs.Event{Now: rwAt, Stage: obs.StageDRAM, Pos: obs.PosIssue,
			Write: p.write, Comp: c.cfg.ObsName, Addr: p.addr, Arg: uint64(dataEnd - rwAt)})
	}

	if p.done == nil {
		// Nothing waits on this access: a ctrlComplete would only end it.
		c.passive.Push(dataEnd)
	} else {
		if len(c.serviced) == cap(c.serviced) && c.servicedHead > 0 {
			n := copy(c.serviced, c.serviced[c.servicedHead:])
			clear(c.serviced[n:])
			c.serviced, c.servicedHead = c.serviced[:n], 0
		}
		c.serviced = append(c.serviced, completion{p.done, p.arg})
		c.eng.ScheduleFn(dataEnd, ctrlComplete, c)
	}

	// Next request may begin scheduling once this one's column command has
	// issued — that is where command-bus serialization bites.
	next := maxCycle(rwAt, now+1)
	if len(c.queue) == 0 {
		c.busy = false
		return
	}
	c.eng.ScheduleFn(next, ctrlServiceNext, c)
}

// dataNs holds the access_ns sample of every access time under 128 cycles:
// the time in whole nanoseconds. An access's time, from its column command
// to its data end, depends only on its shape (tCL or tWL plus its bursts),
// so every shape the model issues finds its sample here.
var dataNs = func() (t [128]uint64) {
	for c := range t {
		t[c] = uint64(float64(c) / CyclesPerNano)
	}
	return t
}()

// accessNs returns the access_ns sample of an access that took c cycles.
func accessNs(c sim.Cycle) uint64 {
	if c < sim.Cycle(len(dataNs)) {
		return dataNs[c]
	}
	return uint64(float64(c) / CyclesPerNano)
}

func (c *Controller) emit(cmd Cmd) {
	if c.cfg.TapCommands {
		c.cmds = append(c.cmds, cmd)
	}
}

func maxCycle(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}
