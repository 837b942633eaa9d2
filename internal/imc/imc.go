// Package imc models the processor's integrated memory controller as it
// faces Optane DIMMs: per-channel write pending queues (WPQ, the ADR
// persistence domain), read pending queues (RPQ), the DDR-T request/grant
// bus, and the 4KB multi-DIMM interleaver LENS characterized.
package imc

import (
	"fmt"
	"slices"

	"repro/internal/dram"
	"repro/internal/nvdimm"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes the iMC.
type Config struct {
	// WPQSlots is the per-channel write pending queue capacity in 64B
	// entries (8 x 64B = the 512B structure LENS sees overflow at 512B).
	WPQSlots int
	// RPQSlots bounds outstanding reads per channel.
	RPQSlots int
	// InterleaveBytes is the contiguous span mapped to one DIMM before
	// rotating to the next (4KB on Optane platforms). Ignored with one
	// channel or when Interleaved is false.
	InterleaveBytes uint64
	// Interleaved enables multi-DIMM interleaving.
	Interleaved bool

	// Obs, when set, registers per-channel counters with the observability
	// registry and enables WPQ/RPQ hook emission. Runtime-only.
	Obs *obs.Obs `json:"-"`

	// BusTransferNs is the DDR-T bus occupancy per 64B transfer.
	BusTransferNs float64
	// BusTurnNs is the penalty for reversing bus direction.
	BusTurnNs float64
	// ReadOverheadNs is the fixed request/grant handshake latency added to
	// each read round trip.
	ReadOverheadNs float64
	// WriteAcceptNs is the latency from WPQ acceptance to store completion
	// (the ADR-durable point the CPU observes).
	WriteAcceptNs float64
	// WriteDrainNs is the per-64B handshake cost of pushing a WPQ entry to
	// the DIMM (DDR-T posted-write overhead; sets the drain rate seen once
	// the WPQ is saturated).
	WriteDrainNs float64
}

// DefaultConfig matches the paper's characterized platform.
func DefaultConfig() Config {
	return Config{
		WPQSlots:        8,
		RPQSlots:        16,
		InterleaveBytes: 4 << 10,
		Interleaved:     false,
		// Transfer occupancy vs handshake latency: a 64B DDR-T transfer
		// occupies the bus ~10ns (the pipelined-beat cost, setting the
		// ~3 GB/s per-channel ceiling); the request/grant handshake adds
		// fixed round-trip latency without occupying the bus.
		BusTransferNs:  10,
		BusTurnNs:      12,
		ReadOverheadNs: 90,
		WriteAcceptNs:  60,
		// Fast WPQ->LSQ handshake: bursts are absorbed by the on-DIMM LSQ,
		// and sustained store backpressure comes from the DIMM internals
		// (LSQ-full retries paced by the media write rate). Small-region
		// store latency is consequently dominated by CPU-side effects the
		// paper's own VANS also leaves unmodeled (Fig. 9a discussion).
		WriteDrainNs: 30,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.WPQSlots == 0 {
		c.WPQSlots = d.WPQSlots
	}
	if c.RPQSlots == 0 {
		c.RPQSlots = d.RPQSlots
	}
	if c.InterleaveBytes == 0 {
		c.InterleaveBytes = d.InterleaveBytes
	}
	if c.BusTransferNs == 0 {
		c.BusTransferNs = d.BusTransferNs
	}
	if c.BusTurnNs == 0 {
		c.BusTurnNs = d.BusTurnNs
	}
	if c.ReadOverheadNs == 0 {
		c.ReadOverheadNs = d.ReadOverheadNs
	}
	if c.WriteAcceptNs == 0 {
		c.WriteAcceptNs = d.WriteAcceptNs
	}
	if c.WriteDrainNs == 0 {
		c.WriteDrainNs = d.WriteDrainNs
	}
	return c
}

// WPQBytes returns the per-channel WPQ capacity in bytes.
func (c Config) WPQBytes() uint64 { return uint64(c.WPQSlots) * 64 }

// Stats counts iMC activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	WPQMerges uint64
	Forwards  uint64 // reads served from WPQ contents
	Fences    uint64
}

// IMC is the integrated memory controller: an interleaver over channels,
// each fronting one NVDIMM.
type IMC struct {
	eng      *sim.Engine
	cfg      Config
	channels []*Channel
	stats    Stats

	fences sim.FreeList[imcFence]
}

// New builds an iMC over the given DIMMs (one channel each). The DIMMs must
// have been built on the same engine.
func New(eng *sim.Engine, cfg Config, dimms []*nvdimm.DIMM) *IMC {
	cfg = cfg.withDefaults()
	m := &IMC{eng: eng, cfg: cfg}
	for i, d := range dimms {
		m.channels = append(m.channels, newChannel(eng, cfg, d, i))
	}
	return m
}

// Config returns the effective configuration.
func (m *IMC) Config() Config { return m.cfg }

// Channels returns the channel list (diagnostics).
func (m *IMC) Channels() []*Channel { return m.channels }

// Stats aggregates counters across channels.
func (m *IMC) Stats() Stats {
	s := m.stats
	for _, ch := range m.channels {
		s.Reads += ch.reads
		s.Writes += ch.writes
		s.WPQMerges += ch.wpq.Merges()
		s.Forwards += ch.forwards
	}
	return s
}

// Route maps a physical address to (channel, on-DIMM address). With
// interleaving, consecutive InterleaveBytes spans rotate across channels;
// without, the whole space maps to channel 0 (the paper's non-interleaved
// single-DIMM setup).
func (m *IMC) Route(addr uint64) (int, uint64) {
	n := uint64(len(m.channels))
	if n <= 1 || !m.cfg.Interleaved {
		return 0, addr
	}
	g := m.cfg.InterleaveBytes
	span := addr / g
	ch := span % n
	local := (span/n)*g + addr%g
	return int(ch), local
}

// Unroute inverts Route (property tests).
func (m *IMC) Unroute(ch int, local uint64) uint64 {
	n := uint64(len(m.channels))
	if n <= 1 || !m.cfg.Interleaved {
		return local
	}
	g := m.cfg.InterleaveBytes
	span := local / g
	return (span*n+uint64(ch))*g + local%g
}

// Read issues a 64B read; done(arg, err) fires when data arrives at the
// iMC, err non-nil when the DIMM reported an uncorrectable media read
// (poison). It reports false when the channel's RPQ is full.
func (m *IMC) Read(addr uint64, done func(any, error), arg any) bool {
	ch, local := m.Route(addr)
	return m.channels[ch].read(local, done, arg)
}

// Write offers a 64B store; done(arg) fires when the store is ADR-durable
// (accepted into the WPQ). It reports false when the WPQ is full and cannot
// merge, in which case the caller retries.
func (m *IMC) Write(addr uint64, data []byte, done func(any), arg any) bool {
	ch, local := m.Route(addr)
	return m.channels[ch].write(local, data, done, arg)
}

// imcFence is one fence across every channel.
type imcFence struct {
	m         *IMC
	remaining int
	done      func(any)
	arg       any
}

// Fence drains every WPQ and flushes every DIMM LSQ, then calls done(arg).
func (m *IMC) Fence(done func(any), arg any) {
	m.stats.Fences++
	f := m.fences.Get()
	*f = imcFence{m: m, remaining: len(m.channels), done: done, arg: arg}
	for _, ch := range m.channels {
		ch.fence(imcFenceChanDone, f)
	}
}

// imcFenceChanDone retires one channel's part of a fence.
func imcFenceChanDone(a any) {
	f := a.(*imcFence)
	f.remaining--
	if f.remaining == 0 {
		done, arg := f.done, f.arg
		f.m.fences.Put(f)
		done(arg)
	}
}

// Busy reports in-flight work on any channel.
func (m *IMC) Busy() bool {
	for _, ch := range m.channels {
		if ch.busy() {
			return true
		}
	}
	return false
}

// bus is the per-channel DDR-T bus: single resource with per-transfer
// occupancy and a direction-turnaround penalty.
type bus struct {
	free     sim.Cycle
	lastDir  bool // true = write
	haveDir  bool
	transfer sim.Cycle
	turn     sim.Cycle
}

// acquire reserves one transfer starting no earlier than now and returns
// the start cycle.
func (b *bus) acquire(now sim.Cycle, write bool) sim.Cycle {
	start := now
	if b.free > start {
		start = b.free
	}
	if b.haveDir && b.lastDir != write {
		start += b.turn
	}
	b.free = start + b.transfer
	b.lastDir = write
	b.haveDir = true
	return start
}

// wpq is the write pending queue: a small write-combining buffer keyed by
// 64B line. It reuses the LSQ mechanics at WPQ scale.
type wpq = nvdimm.LSQ

// Channel couples one WPQ/RPQ pair, a bus, and a DIMM.
type Channel struct {
	eng  *sim.Engine
	cfg  Config
	dimm *nvdimm.DIMM
	bus  bus
	wpq  *wpq

	rpqInFlight int
	draining    bool
	// drainLine holds a WPQ line popped for drain but not yet accepted by
	// the DIMM (so LSQ backpressure can never lose a write).
	drainLine uint64
	haveDrain bool
	// retry is the parked form of the held line's retry loop while the
	// DIMM LSQ refuses it (see parkRetry); retryAt is the refusal's cycle
	// and retrySettled how many passed ticks catchUp has applied.
	retry        sim.Poll
	retryAt      sim.Cycle
	retrySettled int

	transferCyc sim.Cycle
	readOverCyc sim.Cycle
	writeAccCyc sim.Cycle
	drainCyc    sim.Cycle

	reads    uint64
	writes   uint64
	forwards uint64

	o        *obs.Obs
	comp     string
	histWait *obs.Histogram // WPQ residency (enqueue -> drain pop), ns

	// readOps recycles the per-read records: taken in read, returned by
	// the completion event.
	readOps sim.FreeList[chanRead]

	// fenceWaits are the fences waiting for the WPQ to drain.
	fenceWaits []*chanFence
	fences     sim.FreeList[chanFence]
}

func newChannel(eng *sim.Engine, cfg Config, d *nvdimm.DIMM, idx int) *Channel {
	ch := &Channel{
		eng:         eng,
		cfg:         cfg,
		dimm:        d,
		wpq:         nvdimm.NewLSQ(cfg.WPQSlots, 64),
		transferCyc: dram.NsToCycles(cfg.BusTransferNs),
		readOverCyc: dram.NsToCycles(cfg.ReadOverheadNs),
		writeAccCyc: dram.NsToCycles(cfg.WriteAcceptNs),
		drainCyc:    dram.NsToCycles(cfg.WriteDrainNs),
	}
	ch.bus = bus{transfer: ch.transferCyc, turn: dram.NsToCycles(cfg.BusTurnNs)}
	ch.retry.InitTwoPhase(eng, ch.transferCyc, ch.drainCyc, chanDrainRetry, ch)
	d.WakeOnPop(&ch.retry)
	if cfg.Obs != nil {
		ch.o = cfg.Obs
		ch.comp = fmt.Sprintf("imc%d", idx)
		ch.o.RegisterPtr(ch.comp, "reads", &ch.reads)
		ch.o.RegisterPtr(ch.comp, "writes", &ch.writes)
		ch.o.RegisterPtr(ch.comp, "wpq_forwards", &ch.forwards)
		ch.o.RegisterFunc(ch.comp, "wpq_merges", ch.wpq.Merges)
		ch.histWait = ch.o.Histogram(ch.comp, "wpq_wait_ns", nil)
	}
	return ch
}

// DIMM returns the attached DIMM.
func (ch *Channel) DIMM() *nvdimm.DIMM { return ch.dimm }

func (ch *Channel) busy() bool {
	return ch.rpqInFlight > 0 || !ch.wpq.Empty() || ch.haveDrain || ch.dimm.Busy()
}

// chanRead is one read in flight through a channel.
type chanRead struct {
	ch   *Channel
	addr uint64
	err  error
	done func(any, error)
	arg  any
}

func (ch *Channel) read(addr uint64, done func(any, error), arg any) bool {
	if ch.rpqInFlight >= ch.cfg.RPQSlots {
		return false
	}
	ch.reads++
	if ch.o.Active() {
		ch.o.Emit(obs.Event{Now: ch.eng.Now(), Stage: obs.StageRPQ, Pos: obs.PosEnqueue,
			Comp: ch.comp, Addr: addr})
	}
	r := ch.readOps.Get()
	*r = chanRead{ch: ch, addr: addr, done: done, arg: arg}
	// WPQ forwarding: a pending store to the line satisfies the read at the
	// iMC without a DIMM round trip.
	line := addr - addr%64
	if ch.wpq.Contains(line) {
		ch.forwards++
		if ch.o.Active() {
			ch.o.Emit(obs.Event{Now: ch.eng.Now(), Stage: obs.StageWPQ, Pos: obs.PosHit,
				Comp: ch.comp, Addr: addr})
		}
		ch.rpqInFlight++
		ch.eng.AfterFn(ch.readOverCyc/2, chanReadDone, r)
		return true
	}
	ch.rpqInFlight++
	ch.settleRetry()
	start := ch.bus.acquire(ch.eng.Now(), false)
	ch.eng.ScheduleFn(start+ch.transferCyc+ch.readOverCyc/2, chanReadIssue, r)
	return true
}

func chanReadIssue(a any) {
	r := a.(*chanRead)
	r.ch.dimm.Read(r.addr, chanReadReturn, r)
}

// chanReadReturn carries the DIMM's data (or poison) back over the bus.
// Poison rides the same return transfer as data would: DDR-T signals the
// error in-band, so timing is unchanged.
func chanReadReturn(a any, err error) {
	r := a.(*chanRead)
	ch := r.ch
	r.err = err
	ch.settleRetry()
	ret := ch.bus.acquire(ch.eng.Now(), false)
	ch.eng.ScheduleFn(ret+ch.transferCyc+ch.readOverCyc/2, chanReadDone, r)
}

func chanReadDone(a any) {
	r := a.(*chanRead)
	ch := r.ch
	ch.rpqInFlight--
	ch.noteRPQDone(r.addr)
	done, arg, err := r.done, r.arg, r.err
	ch.readOps.Put(r)
	done(arg, err)
}

// noteRPQDone emits the read-completion hook event.
func (ch *Channel) noteRPQDone(addr uint64) {
	if ch.o.Active() {
		ch.o.Emit(obs.Event{Now: ch.eng.Now(), Stage: obs.StageRPQ, Pos: obs.PosComplete,
			Comp: ch.comp, Addr: addr})
	}
}

func (ch *Channel) write(addr uint64, data []byte, done func(any), arg any) bool {
	line := addr - addr%64
	if _, ok := ch.wpq.Accept(line, ch.eng.Now()); !ok {
		ch.kickDrain()
		return false
	}
	ch.writes++
	if ch.o.Active() {
		ch.o.Emit(obs.Event{Now: ch.eng.Now(), Stage: obs.StageWPQ, Pos: obs.PosEnqueue,
			Write: true, Comp: ch.comp, Addr: addr})
	}
	ch.pendingData(addr, data)
	ch.kickDrain()
	ch.eng.AfterFn(ch.writeAccCyc, done, arg)
	return true
}

// pendingData forwards functional contents immediately (the timing path
// tracks only addresses).
func (ch *Channel) pendingData(addr uint64, data []byte) {
	if data == nil {
		return
	}
	// Commit through the DIMM's functional store at acceptance order.
	ch.dimm.AcceptWriteData(addr, data)
}

// chanDrainStep / chanDrainPush adapt the WPQ drain engine to the engine's
// allocation-free recurring callback form (AfterFn): the drain loop fires
// twice per drained entry for as long as stores flow, so closures here would
// be a steady allocation stream.
func chanDrainStep(a any) { a.(*Channel).drainStep() }
func chanDrainPush(a any) { a.(*Channel).drainPush() }

// kickDrain starts the WPQ drain engine.
func (ch *Channel) kickDrain() {
	if ch.draining {
		return
	}
	ch.draining = true
	ch.eng.AfterFn(1, chanDrainStep, ch)
}

// drainStep pushes one WPQ entry per iteration to the DIMM LSQ over the
// bus. A line popped from the WPQ is held in drainLine until the DIMM
// accepts it, so backpressure never drops a write.
func (ch *Channel) drainStep() {
	if !ch.haveDrain {
		g, ok := ch.wpq.PopGroup()
		if !ok {
			ch.draining = false
			return
		}
		// The WPQ combines at 64B granularity: one line per group.
		ch.drainLine = g.Block
		ch.haveDrain = true
		if ch.histWait != nil {
			now := ch.eng.Now()
			if now > g.Enq {
				ch.histWait.Observe(uint64(float64(now-g.Enq) / dram.CyclesPerNano))
			} else {
				ch.histWait.Observe(0)
			}
		}
		if ch.o.Active() {
			ch.o.Emit(obs.Event{Now: ch.eng.Now(), Stage: obs.StageWPQ, Pos: obs.PosDequeue,
				Write: true, Comp: ch.comp, Addr: g.Block})
		}
	}
	start := ch.bus.acquire(ch.eng.Now(), true)
	ch.eng.ScheduleFn(start+ch.transferCyc, chanDrainPush, ch)
}

// drainPush completes one drain hop after the bus transfer: offer the held
// line to the DIMM, then pace the next drain decision.
func (ch *Channel) drainPush() {
	if !ch.dimm.AcceptWrite(ch.drainLine, nil) {
		// LSQ full: hold the line and retry after a drain interval.
		if ch.rpqInFlight == 0 {
			ch.parkRetry()
			return
		}
		ch.eng.AfterFn(ch.drainCyc, chanDrainStep, ch)
		return
	}
	ch.haveDrain = false
	if ch.wpq.Empty() {
		for _, w := range ch.fenceWaits {
			w.poll.Wake()
		}
	}
	ch.eng.AfterFn(ch.drainCyc, chanDrainStep, ch)
}

// parkRetry parks the retry of the held line the full DIMM LSQ just
// refused. Its re-arming form is drainStep a drain interval later, which
// takes the bus for a write transfer, then drainPush a transfer later,
// refused again while the LSQ stays full: a two-phase poll whose ticks
// change only the bus and the DIMM's stall count, both settled by
// catchUp. The DIMM wakes it when it pops a group, and reads settle and
// wake it before they take the bus. With a read in flight the bus may
// already be reserved past the refusal, which catchUp does not model, so
// drainPush retries with real events instead.
func (ch *Channel) parkRetry() {
	ch.retryAt, ch.retrySettled = ch.eng.Now(), 0
	ch.retry.Park(ch.drainCyc, sim.Never)
}

// catchUp applies what the parked retry's passed ticks would have done had
// they fired. The k-th passed drainStep found the bus free and took it at
// its tick, retryAt + k*(drainCyc+transferCyc) + drainCyc, leaving it free a
// transfer later in the write direction; every passed drainPush was
// refused.
func (ch *Channel) catchUp() {
	n := ch.retry.Passed()
	if n == ch.retrySettled {
		return
	}
	if steps := (n + 1) / 2; steps > (ch.retrySettled+1)/2 {
		ch.bus.free = ch.retryAt + sim.Cycle(steps)*(ch.drainCyc+ch.transferCyc)
		ch.bus.lastDir, ch.bus.haveDir = true, true
	}
	ch.dimm.NoteRefused(uint64(n/2 - ch.retrySettled/2))
	ch.retrySettled = n
}

// settleRetry brings a parked retry up to date just before a read takes the
// bus, and wakes it so that its next tick fires for real and sees the
// read's transfer.
func (ch *Channel) settleRetry() {
	ch.catchUp()
	ch.retry.Wake()
}

// chanDrainRetry fires a woken tick of the parked retry: it settles the
// passed ticks, then runs the hop the re-arming retry would at this tick,
// drainStep on even ticks and drainPush on odd ones.
func chanDrainRetry(a any) {
	ch := a.(*Channel)
	ch.catchUp()
	if ch.retry.Passed()%2 == 0 {
		ch.drainStep()
	} else {
		ch.drainPush()
	}
}

// chanFence is one channel's part of a fence: it waits, parked on the drain
// interval, until the WPQ is empty and no line is held, then flushes the
// DIMM.
type chanFence struct {
	ch   *Channel
	poll sim.Poll
	done func(any)
	arg  any
}

// wpqDrained reports whether every accepted store has left the WPQ.
func (ch *Channel) wpqDrained() bool { return ch.wpq.Empty() && !ch.haveDrain }

// fence drains the WPQ then flushes the DIMM. The check runs one cycle
// after the call, then every drain interval; its ticks stay parked until
// drainPush empties the WPQ. While the WPQ holds a store the drain engine
// is running (write kicks it and only an empty WPQ stops it), so the check
// has nothing to start. done(arg) runs one event after the DIMM's flush
// notification, at the same cycle.
func (ch *Channel) fence(done func(any), arg any) {
	w := ch.fences.Get()
	*w = chanFence{ch: ch, done: done, arg: arg}
	w.poll.Init(ch.eng, ch.drainCyc, chanFenceWait, w)
	due := sim.Never
	if ch.wpqDrained() {
		due = 0
	}
	w.poll.Park(1, due)
	ch.fenceWaits = append(ch.fenceWaits, w)
}

func chanFenceWait(a any) {
	w := a.(*chanFence)
	ch := w.ch
	if !ch.wpqDrained() {
		w.poll.Park(ch.drainCyc, sim.Never)
		return
	}
	i := slices.Index(ch.fenceWaits, w)
	ch.fenceWaits = slices.Delete(ch.fenceWaits, i, i+1)
	ch.dimm.Flush(chanFenceFlushed, w)
}

func chanFenceFlushed(a any) {
	w := a.(*chanFence)
	w.ch.eng.ScheduleFn(w.ch.eng.Now(), chanFenceDone, w)
}

func chanFenceDone(a any) {
	w := a.(*chanFence)
	done, arg := w.done, w.arg
	w.ch.fences.Put(w)
	done(arg)
}
