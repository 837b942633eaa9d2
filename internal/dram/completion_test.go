package dram

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// issueLog records the controller's per-access issue hooks: one
// StageDRAM/PosIssue event per serviced access, emitted in service order,
// at the column command's cycle with the data phase's length in Arg.
type issueLog struct{ issued []obs.Event }

func (l *issueLog) OnEvent(ev obs.Event) {
	if ev.Stage == obs.StageDRAM && ev.Pos == obs.PosIssue {
		l.issued = append(l.issued, ev)
	}
}

// oracleAccess is one access of a randomized stream and what became of it.
type oracleAccess struct {
	addr   uint64
	write  bool
	bursts int
	req    *mem.Request // non-nil: submitted through Submit
	quiet  bool         // composed with a nil continuation
	doneAt sim.Cycle
}

// TestCompletionsFireInServiceOrder is the oracle for the controller's
// completion FIFO: randomized streams of 1-4-burst reads and writes over
// every bank and rank, mixing the mem.Request and composed completion forms
// and composed accesses with no continuation (a lane slot each), under
// FR-FCFS (so open-page service order differs from arrival order), with
// refresh and closed-page each on and off. Every access with a
// continuation must complete exactly once, in the order the scheduler
// serviced it, at its own data-end cycle, and data-end cycles must never
// decrease.
func TestCompletionsFireInServiceOrder(t *testing.T) {
	for _, refresh := range []bool{false, true} {
		for _, closed := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("refresh=%v/closed=%v/seed=%d", refresh, closed, seed)
				t.Run(name, func(t *testing.T) { checkServiceOrder(t, refresh, closed, seed) })
			}
		}
	}
}

func checkServiceOrder(t *testing.T, refresh, closed bool, seed uint64) {
	log := &issueLog{}
	o := obs.New()
	o.Attach(log)
	cfg := DefaultConfig()
	cfg.Policy = FRFCFS
	cfg.RefreshEnabled = refresh
	cfg.ClosedPage = closed
	cfg.Obs = o
	eng := sim.NewEngine()
	c := NewController(eng, cfg)
	g := c.cfg.Geometry

	rng := sim.NewRNG(seed)
	const n = 800
	accs := make([]*oracleAccess, n)
	byAddr := make(map[uint64]int, n)
	var accepted, completions []int
	for i := range accs {
		// Few rows per bank, so row hits, misses and conflicts all occur;
		// distinct addresses, so issue hooks map back to their access.
		var addr uint64
		for {
			addr = g.UnmapAddr(Coord{
				Rank:      rng.Intn(g.Ranks),
				BankGroup: rng.Intn(g.BankGroups),
				Bank:      rng.Intn(g.Banks),
				Row:       rng.Uint64n(4),
				Col:       rng.Uint64n(g.RowSize/256) * 256,
			})
			if _, dup := byAddr[addr]; !dup {
				break
			}
		}
		byAddr[addr] = i
		a := &oracleAccess{addr: addr, write: rng.Intn(2) == 0, bursts: 1 + rng.Intn(4)}
		if a.bursts == 1 && rng.Intn(2) == 0 {
			a.req = &mem.Request{Op: mem.OpRead, Addr: addr, Size: 64, OnDone: func(*mem.Request) {
				a.doneAt = eng.Now()
				completions = append(completions, byAddr[a.addr])
			}}
			if a.write {
				a.req.Op = mem.OpWrite
			}
		} else {
			a.quiet = rng.Intn(4) == 0
		}
		accs[i] = a
	}
	composedDone := func(arg any) {
		a := arg.(*oracleAccess)
		a.doneAt = eng.Now()
		completions = append(completions, byAddr[a.addr])
	}
	var submit func(arg any)
	submit = func(arg any) {
		a := arg.(*oracleAccess)
		var ok bool
		switch {
		case a.req != nil:
			ok = c.Submit(a.req)
		case a.quiet:
			ok = c.ScheduleN(a.addr, a.write, a.bursts, nil, nil)
		default:
			ok = c.ScheduleN(a.addr, a.write, a.bursts, composedDone, a)
		}
		if !ok {
			eng.AfterFn(1+sim.Cycle(rng.Intn(8)), submit, a)
			return
		}
		accepted = append(accepted, byAddr[a.addr])
	}
	// Bursty arrivals keep the queue deep enough for FR-FCFS to reorder.
	at := sim.Cycle(0)
	for _, a := range accs {
		if rng.Intn(4) == 0 {
			at += sim.Cycle(rng.Intn(200))
		}
		eng.ScheduleFn(at, submit, a)
	}
	eng.Run()

	quiet := 0
	for _, a := range accs {
		if a.quiet {
			quiet++
		}
	}
	if quiet == 0 || len(completions) != n-quiet || len(log.issued) != n {
		t.Fatalf("%d completions and %d issues for %d accesses, %d of them without a continuation",
			len(completions), len(log.issued), n, quiet)
	}
	if !c.Drained() || c.PendingSlots() != 0 {
		t.Fatalf("controller not drained (%d slots unpassed)", c.PendingSlots())
	}
	reordered := false
	var prevEnd sim.Cycle
	done := 0
	for k, ev := range log.issued {
		id, ok := byAddr[ev.Addr]
		if !ok {
			t.Fatalf("issue %d for unknown address %#x", k, ev.Addr)
		}
		dataEnd := ev.Now + sim.Cycle(ev.Arg)
		if !accs[id].quiet {
			if completions[done] != id {
				t.Fatalf("completion %d is access %d, but the scheduler serviced access %d %d-th",
					done, completions[done], id, k)
			}
			done++
			if accs[id].doneAt != dataEnd {
				t.Fatalf("access %d completed at %d, its data phase ended at %d", id, accs[id].doneAt, dataEnd)
			}
		}
		if dataEnd < prevEnd {
			t.Fatalf("data end %d of service %d precedes the previous %d", dataEnd, k, prevEnd)
		}
		prevEnd = dataEnd
		if id != accepted[k] {
			reordered = true
		}
	}
	// Closed-page leaves no row open for FR-FCFS to prefer, so only
	// open-page streams are reordered.
	if !closed && !reordered {
		t.Fatal("FR-FCFS serviced every access in acceptance order; the oracle checks nothing")
	}
}

// TestQueueRecordSize pins the records the controller moves through its two
// queues on 64-bit hosts: a queued access is 40 bytes (its coordinates are
// decoded when the scheduler looks at it) and a serviced one keeps only its
// 24-byte continuation. The request queue shifts its entries when the
// scheduler takes one; the serviced FIFO pops at its head.
func TestQueueRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record layout is pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(pending{}); n != 40 {
		t.Fatalf("pending is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(completion{}); n != 24 {
		t.Fatalf("completion is %d bytes, want 24", n)
	}
}

// TestServicedFIFOBounded streams 100,000 accesses through a request queue
// kept full. Each access's command issues before the previous data phase
// ends, so the serviced FIFO never empties; its capacity must still be
// bounded by the few accesses in flight, not grow with the stream.
func TestServicedFIFOBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	const n = 100000
	done, maxLive := 0, 0
	count := func(any) { done++ }
	for i := 0; i < n; {
		if c.Schedule(uint64(i)*64, i%4 == 0, count, nil) {
			i++
		} else {
			c.Engine().Step()
		}
		maxLive = max(maxLive, len(c.serviced)-c.servicedHead)
	}
	c.Engine().Run()
	if done != n {
		t.Fatalf("%d of %d accesses completed", done, n)
	}
	if got := cap(c.serviced); got > 64 {
		t.Fatalf("serviced FIFO capacity %d after %d accesses with at most %d in flight", got, n, maxLive)
	}
}

// TestQuietAccessHoldsDrained: an access with no continuation leaves the
// serviced FIFO out and takes a lane slot at its data-end cycle instead of
// a completion event. Until the engine passes that cycle the controller is
// not drained; an access with a continuation serviced after it still
// completes at its own data end.
func TestQuietAccessHoldsDrained(t *testing.T) {
	log := &issueLog{}
	o := obs.New()
	o.Attach(log)
	cfg := DefaultConfig()
	cfg.Obs = o
	eng := sim.NewEngine()
	c := NewController(eng, cfg)
	var doneAt sim.Cycle
	c.ScheduleN(0, true, 4, nil, nil)
	c.ScheduleN(1<<20, false, 1, func(any) { doneAt = eng.Now() }, nil)
	for eng.StepUntil(0) {
	}
	if len(log.issued) != 1 {
		t.Fatalf("%d accesses serviced at cycle 0, want 1", len(log.issued))
	}
	quietEnd := log.issued[0].Now + sim.Cycle(log.issued[0].Arg)
	for eng.StepUntil(quietEnd - 1) {
	}
	if c.Drained() || c.PendingSlots() != 1 {
		t.Fatalf("at cycle %d, before the quiet access's data end %d: drained %v, %d slots",
			eng.Now(), quietEnd, c.Drained(), c.PendingSlots())
	}
	for eng.StepUntil(quietEnd) {
	}
	if c.PendingSlots() != 0 || eng.Now() != quietEnd {
		t.Fatalf("StepUntil(%d) left %d slots, clock at %d", quietEnd, c.PendingSlots(), eng.Now())
	}
	if c.Drained() {
		t.Fatal("drained while the access with a continuation is in flight")
	}
	eng.Run()
	if !c.Drained() || doneAt != log.issued[1].Now+sim.Cycle(log.issued[1].Arg) {
		t.Fatalf("the second access completed at %d, its data phase ended at %d (drained %v)",
			doneAt, log.issued[1].Now+sim.Cycle(log.issued[1].Arg), c.Drained())
	}
	// Two scheduler turns and one completion fired; the quiet access's
	// completion was passed.
	if eng.Fired() != 3 {
		t.Fatalf("fired %d events, want 3", eng.Fired())
	}
}
