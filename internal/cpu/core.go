package cpu

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Stats summarizes one run of the core.
type Stats struct {
	Instructions uint64
	Cycles       sim.Cycle // engine cycles (0.75 ns each)
	Loads        uint64
	Stores       uint64
	Fences       uint64

	L1    cache.Stats
	L2    cache.Stats
	L3    cache.Stats
	DTLB  cache.Stats
	STLB  cache.Stats
	Walks uint64

	// MemReads / MemWrites count requests sent to the memory system.
	MemReads  uint64
	MemWrites uint64

	// ClassCycles attributes retire time to instruction classes.
	ClassCycles [numClasses]sim.Cycle
	// ClassInstrs counts instructions per class.
	ClassInstrs [numClasses]uint64

	// ClassLLCMisses / ClassTLBMisses attribute misses to classes
	// (Figure 12a's per-operation analysis).
	ClassLLCMisses [numClasses]uint64
	ClassTLBMisses [numClasses]uint64

	// RLBHits / PreTransHits / PreTransStale count Pre-translation events.
	RLBHits       uint64
	PreTransHits  uint64
	PreTransStale uint64
	MkptMarked    uint64
}

// IPC returns instructions per core cycle.
func (s Stats) IPC(coreGHz float64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	coreCycles := float64(s.Cycles) * coreGHz * 1000 / 1333.0
	return float64(s.Instructions) / coreCycles
}

// LLCMissRate returns L3 misses / L3 references.
func (s Stats) LLCMissRate() float64 { return s.L3.MissRate() }

// LLCMPKI returns L3 misses per thousand instructions.
func (s Stats) LLCMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L3.Misses) / float64(s.Instructions) * 1000
}

// STLBMPKI returns second-level TLB misses per thousand instructions.
func (s Stats) STLBMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.STLB.Misses) / float64(s.Instructions) * 1000
}

// Core is the window-based out-of-order timing model bound to one memory
// system.
type Core struct {
	cfg Config
	cyc cpucycles
	sys mem.System
	eng *sim.Engine

	l1, l2, l3 *cache.Cache
	dtlb, stlb *cache.TLB

	rlb      *RLB
	preTrans PreTransPort

	// toks holds the completion state of the last 4*ROB instructions by
	// value, one slot per instruction in dispatch order; next is the slot
	// the next instruction takes, and the slot ROB before it belongs to the
	// instruction whose retirement bounds the ROB window. Retirement is
	// drained at least every 4*ROB instructions, so a slot is reused only
	// after its instruction retired and nothing but lastLoad still reads it
	// (see claim).
	toks []token
	next int
	// dispatchF is the fractional dispatch clock in engine cycles.
	dispatchF float64
	// lastLoad is the most recent load's completion token (dep chains);
	// heldLoad keeps its value once its slot in toks is reused.
	lastLoad *token
	heldLoad token
	// outstanding counts memory misses in flight (MSHR limit).
	outstanding int

	// free recycles memory requests. A request's Meta points at the token
	// its completion resolves (none for write-backs and RFOs), so onDone,
	// bound once in New, serves every request without a closure.
	free   sim.FreeList[mem.Request]
	onDone func(*mem.Request)

	nextID uint64
	stats  Stats
}

// token is one instruction's completion: at is valid once done. extra
// delays a pending memory completion (an mkpt load that missed the RLB
// completes that long after its data); class attributes its retire cycles.
type token struct {
	at    sim.Cycle
	extra sim.Cycle
	done  bool
	class InstrClass
}

// PreTransPort abstracts the DIMM-side pre-translation table lookup for a
// physical address (implemented by vans.System when the optimization is on).
type PreTransPort interface {
	// Lookup returns the recorded pointee page frame for paddr.
	Lookup(paddr uint64) (pfn uint64, ok bool)
	// Update records paddr -> pfn.
	Update(paddr, pfn uint64)
	// ExtraLatency is the added DRAM cost of fetching the entry with data.
	ExtraLatency() sim.Cycle
}

// New builds a core over sys with cfg (zero value defaulted).
func New(cfg Config, sys mem.System) *Core {
	if cfg.WidthIssue == 0 {
		cfg = DefaultConfig()
	}
	c := &Core{
		cfg:  cfg,
		cyc:  cfg.cycles(),
		sys:  sys,
		eng:  sys.Engine(),
		l1:   cache.New(cfg.L1),
		l2:   cache.New(cfg.L2),
		l3:   cache.New(cfg.L3),
		dtlb: cache.NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageSize),
		stlb: cache.NewTLB(cfg.STLBEntries, cfg.STLBWays, cfg.PageSize),
	}
	c.toks = make([]token, 4*cfg.ROB)
	c.onDone = c.memDone
	if cfg.RLBEntries > 0 {
		c.rlb = NewRLB(cfg.RLBEntries)
	}
	return c
}

// AttachPreTrans connects the DIMM-side pre-translation table (Pre-
// translation is active only when both the RLB and the port are present).
func (c *Core) AttachPreTrans(p PreTransPort) { c.preTrans = p }

// Stats returns a snapshot including cache/TLB counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.L1 = c.l1.Stats()
	s.L2 = c.l2.Stats()
	s.L3 = c.l3.Stats()
	s.DTLB = c.dtlb.Stats()
	s.STLB = c.stlb.Stats()
	return s
}

// claim takes the next token slot for an instruction of class. Its previous
// occupant retired 4*ROB instructions ago, so no completion targets it any
// more; if it was the last load, its value moves to heldLoad.
func (c *Core) claim(class InstrClass) *token {
	t := &c.toks[c.next]
	if c.next++; c.next == len(c.toks) {
		c.next = 0
	}
	if c.lastLoad == t {
		c.heldLoad = *t
		c.lastLoad = &c.heldLoad
	}
	*t = token{class: class}
	return t
}

// finish resolves tok at cycle at.
func (t *token) finish(at sim.Cycle) {
	t.done = true
	t.at = at
}

// tokenDone is the engine callback that resolves a token whose completion
// cycle is already recorded in at.
func tokenDone(a any) { a.(*token).done = true }

// resolve runs the engine until tok completes.
func (c *Core) resolve(tok *token) sim.Cycle {
	if !tok.done {
		c.eng.RunWhile(func() bool { return !tok.done })
		if !tok.done {
			panic("cpu: token never resolved (memory model deadlock)")
		}
	}
	return tok.at
}

// memDone completes one memory request: it frees the miss slot (fences
// hold none), resolves the waiting token if any, and recycles the request.
func (c *Core) memDone(r *mem.Request) {
	if r.Op != mem.OpFence {
		c.outstanding--
	}
	if t, ok := r.Meta.(*token); ok {
		if t.extra == 0 {
			t.finish(r.Done)
		} else {
			t.at = r.Done + t.extra
			c.eng.ScheduleFn(t.at, tokenDone, t)
		}
	}
	c.free.Put(r)
}

// request returns a recycled request whose completion resolves tok (nil:
// nobody waits on it).
func (c *Core) request(op mem.Op, addr uint64, size uint32, tok *token) *mem.Request {
	c.nextID++
	r := c.free.Get()
	*r = mem.Request{ID: c.nextID, Op: op, Addr: addr, Size: size, OnDone: c.onDone}
	if tok != nil {
		r.Meta = tok
	}
	return r
}

// submitRetry submits r until accepted, advancing the engine one event
// per refusal.
func (c *Core) submitRetry(r *mem.Request) {
	for !c.sys.Submit(r) {
		if !c.eng.Step() {
			panic("cpu: memory system rejected request with no pending events")
		}
	}
}

// memAccess issues a cache-line read or write at no earlier than `at`,
// counting against MSHRs; its completion resolves tok (nil for RFOs and
// write-backs nobody waits on).
func (c *Core) memAccess(op mem.Op, addr uint64, at sim.Cycle, tok *token) {
	c.waitMSHR()
	if c.eng.Now() < at {
		c.eng.RunUntil(at)
	}
	r := c.request(op, addr, 64, tok)
	c.outstanding++
	if op == mem.OpRead {
		c.stats.MemReads++
	} else {
		c.stats.MemWrites++
	}
	c.submitRetry(r)
}

// waitMSHR blocks until a miss slot is free. An engine with no event left
// while every slot is taken has lost a completion: a model deadlock,
// reported loudly rather than spun on.
func (c *Core) waitMSHR() {
	for c.outstanding >= c.cfg.MSHRs {
		if !c.eng.Step() {
			panic("cpu: waiting for a miss slot with no pending events (memory model deadlock)")
		}
	}
}

// translate performs the TLB lookup chain at time `at` and returns the
// post-translation time.
func (c *Core) translate(addr uint64, at sim.Cycle, class InstrClass) sim.Cycle {
	if c.dtlb.Lookup(addr) {
		return at
	}
	at += c.cyc.stlb
	if c.stlb.Lookup(addr) {
		c.dtlb.Insert(addr)
		return at
	}
	// Page walk: fixed-cost walk (page-table lines usually cache-resident).
	c.stats.Walks++
	c.stats.ClassTLBMisses[class]++
	at += c.cyc.walk
	c.stlb.Insert(addr)
	c.dtlb.Insert(addr)
	return at
}

// loadPath walks L1->L2->L3, filling on the hit path, and resolves tok at
// the hit latency, or issues the memory read that will resolve it.
func (c *Core) loadPath(addr uint64, at sim.Cycle, class InstrClass, tok *token) {
	line := addr &^ 63
	if c.l1.Access(line, false) {
		tok.finish(at + c.cyc.l1)
		return
	}
	at += c.cyc.l1
	if c.l2.Access(line, false) {
		c.fillL1(line, false)
		tok.finish(at + c.cyc.l2)
		return
	}
	at += c.cyc.l2
	if c.l3.Access(line, false) {
		c.fillL1(line, false)
		c.l2.Fill(line, false)
		tok.finish(at + c.cyc.l3)
		return
	}
	at += c.cyc.l3
	c.stats.ClassLLCMisses[class]++
	c.memAccess(mem.OpRead, line, at, tok)
	// The line installs when data arrives; approximate by installing now
	// (timing of subsequent hits is unaffected at this model fidelity).
	c.fillHierarchy(line, false)
}

// fillL1 installs a line into L1, pushing dirty victims down.
func (c *Core) fillL1(line uint64, dirty bool) {
	if v, ev := c.l1.Fill(line, dirty); ev && v.Dirty {
		if v2, ev2 := c.l2.Fill(v.Addr, true); ev2 && v2.Dirty {
			c.spillL3(v2.Addr)
		}
	}
}

// fillHierarchy installs a line into all levels (miss fill).
func (c *Core) fillHierarchy(line uint64, dirty bool) {
	c.fillL1(line, dirty)
	if v, ev := c.l2.Fill(line, false); ev && v.Dirty {
		c.spillL3(v.Addr)
	}
	if v, ev := c.l3.Fill(line, false); ev && v.Dirty {
		c.memAccess(mem.OpWrite, v.Addr, c.eng.Now(), nil)
	}
}

// spillL3 pushes a dirty L2 victim into L3, spilling to memory if L3
// displaces a dirty line.
func (c *Core) spillL3(line uint64) {
	if v, ev := c.l3.Fill(line, true); ev && v.Dirty {
		c.memAccess(mem.OpWrite, v.Addr, c.eng.Now(), nil)
	}
}

// storePath handles a cached store (write-allocate, RFO on miss). Stores
// complete into the store buffer immediately; misses generate traffic.
func (c *Core) storePath(addr uint64, at sim.Cycle) {
	line := addr &^ 63
	if c.l1.Access(line, true) {
		return
	}
	if c.l2.Access(line, true) {
		c.fillL1(line, true)
		return
	}
	if c.l3.Access(line, true) {
		c.fillL1(line, true)
		c.l2.Fill(line, false)
		return
	}
	// RFO: fetch ownership from memory; traffic matters, the store itself
	// retires from the store buffer.
	c.memAccess(mem.OpRead, line, at, nil)
	c.fillHierarchy(line, true)
}

// Run executes the workload to completion and returns the statistics.
func (c *Core) Run(w Workload) Stats {
	start := c.eng.Now()
	c.dispatchF = float64(start)
	prevRetire := start
	// pending counts the instructions since retirement was last drained:
	// the slots just before c.next, in order.
	pending := 0
	for {
		in, ok := w.Next()
		if !ok {
			break
		}
		c.stats.Instructions++
		c.stats.ClassInstrs[in.Class]++

		// ROB window: dispatch cannot pass retirement of the instruction
		// ROB slots earlier.
		c.dispatchF += c.cyc.perInstr
		if c.stats.Instructions > uint64(c.cfg.ROB) {
			old := c.next - c.cfg.ROB
			if old < 0 {
				old += len(c.toks)
			}
			if at := c.resolve(&c.toks[old]); float64(at) > c.dispatchF {
				c.dispatchF = float64(at)
			}
		}
		dispatch := sim.Cycle(c.dispatchF)

		done := c.claim(in.Class)
		switch {
		case in.Fence:
			c.stats.Fences++
			r := c.request(mem.OpFence, 0, 0, done)
			if c.eng.Now() < dispatch {
				c.eng.RunUntil(dispatch)
			}
			c.submitRetry(r)
			// Fences serialize dispatch.
			if at := c.resolve(done); float64(at) > c.dispatchF {
				c.dispatchF = float64(at)
			}

		case in.IsMem && in.IsLoad:
			c.stats.Loads++
			issue := dispatch
			if in.DependsOnLoad && c.lastLoad != nil {
				if at := c.resolve(c.lastLoad); at > issue {
					issue = at
				}
			}
			issue = c.translate(in.Addr, issue, in.Class)
			c.loadPath(in.Addr, issue, in.Class, done)
			if in.Mkpt {
				c.mkptLoad(in, done)
			}
			c.lastLoad = done

		case in.IsMem && in.NT:
			c.stats.Stores++
			issue := dispatch
			if in.DependsOnLoad && c.lastLoad != nil {
				if at := c.resolve(c.lastLoad); at > issue {
					issue = at
				}
			}
			issue = c.translate(in.Addr, issue, in.Class)
			c.memAccess(mem.OpWriteNT, in.Addr, issue, done)

		case in.IsMem && in.Clwb:
			c.stats.Stores++
			issue := c.translate(in.Addr, dispatch, in.Class)
			line := in.Addr &^ 63
			// clwb leaves the line resident but clean; the write-back goes
			// to the memory system either way in this model.
			c.l1.Invalidate(line)
			c.memAccess(mem.OpClwb, line, issue, done)

		case in.IsMem:
			c.stats.Stores++
			issue := dispatch
			if in.DependsOnLoad && c.lastLoad != nil {
				if at := c.resolve(c.lastLoad); at > issue {
					issue = at
				}
			}
			issue = c.translate(in.Addr, issue, in.Class)
			c.storePath(in.Addr, issue)
			done.finish(issue + c.cyc.l1)

		default:
			done.finish(dispatch + sim.Cycle(c.cyc.coreCycle))
		}

		// In-order retirement attribution is deferred so outstanding loads
		// overlap (memory-level parallelism); tokens resolve lazily.
		if pending++; pending >= len(c.toks) {
			prevRetire = c.drainRetire(pending, prevRetire)
			pending = 0
		}
	}
	prevRetire = c.drainRetire(pending, prevRetire)
	// Drain outstanding background traffic.
	for c.outstanding > 0 {
		if !c.eng.Step() {
			panic("cpu: draining outstanding requests with no pending events (memory model deadlock)")
		}
	}
	if prevRetire > c.eng.Now() {
		c.eng.RunUntil(prevRetire)
	}
	c.stats.Cycles = c.eng.Now() - start
	return c.Stats()
}

// drainRetire resolves the last n instructions' tokens in order and
// attributes their retire cycles.
func (c *Core) drainRetire(n int, prevRetire sim.Cycle) sim.Cycle {
	i := c.next - n
	if i < 0 {
		i += len(c.toks)
	}
	for ; n > 0; n-- {
		t := &c.toks[i]
		at := c.resolve(t)
		if at < prevRetire {
			at = prevRetire
		}
		c.stats.ClassCycles[t.class] += at - prevRetire
		prevRetire = at
		if i++; i == len(c.toks) {
			i = 0
		}
	}
	return prevRetire
}
