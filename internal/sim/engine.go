// Package sim provides the discrete-event simulation substrate shared by all
// timing models in this repository: a cycle-resolution event engine, bounded
// queues, deterministic random number generation, and statistics collectors.
//
// Every architectural component (memory controller, on-DIMM buffers, DRAM
// banks, CPU core) advances by scheduling callbacks on a single Engine, so a
// whole-system simulation is one totally ordered sequence of cycle-stamped
// events. Determinism is guaranteed: events at the same cycle fire in
// scheduling order.
package sim

// Cycle is a simulation timestamp in clock cycles of the simulated memory
// subsystem. The zero value is the beginning of time.
type Cycle uint64

// Never is a sentinel cycle value meaning "not scheduled / not happening".
const Never = Cycle(1<<63 - 1)

// event is a scheduled callback. seq breaks ties so same-cycle events fire in
// the order they were scheduled, making runs reproducible. Exactly one of
// fn/afn is set; afn is invoked with arg, letting recurring callers schedule
// without allocating a fresh closure per event (see ScheduleFn). The record
// is 48 bytes: heap traffic is the engine's hottest path, and every word is
// copied on each push, pop, and sift.
type event struct {
	at  Cycle
	seq uint64
	fn  func()
	afn func(any)
	arg any
}

// before orders events by (at, seq): earliest cycle first, scheduling order
// within a cycle.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event scheduler with cycle resolution.
//
// Internally it keeps two structures: a 4-ary min-heap of event values for
// future events (no interface boxing — scheduling does not allocate beyond
// amortized slice growth) and a FIFO fast path for events scheduled at the
// current cycle, which skip the heap entirely. The (at, seq) total order is
// preserved across both: every event carries a globally increasing sequence
// number, and the dispatcher always fires the least (at, seq) event next,
// one at a time. Parked polls (see Poll) sit beside both: their ticks hold
// (at, seq) slots in the same order but are passed, not fired, until due.
//
// The zero value is ready to use. Engine is not safe for concurrent use; the
// simulation model here is single-threaded by design (determinism first).
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64
	peak  int // high-water mark of Pending(), updated on every schedule

	// heap holds events with at > now (at insertion time), ordered as a
	// 4-ary min-heap by (at, seq).
	heap []event

	// nowq is the same-cycle FIFO: events scheduled at or before the
	// current cycle. Invariant: every live nowq entry has at == now, and
	// the queue drains completely before now can advance (no pending event
	// can be earlier). Entries are in increasing seq order by construction.
	nowq    []event
	nowHead int

	// parked holds the polls whose next tick is parked (see Poll), in no
	// particular order; parkAt is the earliest parked tick's cycle. Only an
	// event at or after parkAt needs the parked set consulted.
	parked []*Poll
	parkAt Cycle
}

// NewEngine returns an engine starting at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not yet executed events. A
// parked poll counts as the one pending event its re-arming callback would
// hold.
func (e *Engine) Pending() int {
	return len(e.heap) + len(e.nowq) - e.nowHead + len(e.parked)
}

// PeakPending returns the highest Pending() observed across the run — the
// peak queue depth reported in observability digests.
func (e *Engine) PeakPending() int { return e.peak }

// notePeak updates the pending high-water mark; called on every schedule.
func (e *Engine) notePeak() {
	if p := e.Pending(); p > e.peak {
		e.peak = p
	}
}

// NextAt peeks at the timestamp of the earliest pending real event: a
// queued event or the tick a parked poll is due to fire. ok is false when
// there is none. Used by drivers that must stop the simulation at an exact
// cycle (power-fail cuts) without firing anything beyond it; PassUntil then
// moves the parked polls up to the cut.
func (e *Engine) NextAt() (Cycle, bool) {
	at := Never
	if ev, _ := e.head(); ev != nil {
		at = ev.at
	}
	for _, p := range e.parked {
		if d := p.dueAt(); d < at {
			at = d
		}
	}
	if at == Never {
		return 0, false
	}
	return at, true
}

// push inserts ev, stamping it with the next sequence number. Scheduling in
// the past (at < Now) is treated as "now": the event joins the same-cycle
// FIFO and fires before time advances further.
func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	if ev.at <= e.now {
		ev.at = e.now
		e.nowq = append(e.nowq, ev)
	} else {
		e.heapPush(ev)
	}
	e.notePeak()
}

// Schedule runs fn at absolute cycle at. Scheduling in the past (at < Now) is
// treated as "now": the event fires before time advances further.
func (e *Engine) Schedule(at Cycle, fn func()) { e.push(event{at: at, fn: fn}) }

// After runs fn delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.Schedule(e.now+delay, fn) }

// ScheduleFn runs fn(arg) at absolute cycle at, with the same past-clamping
// semantics as Schedule. fn is typically a package-level function and arg the
// component it operates on, so recurring events (drain engines, pollers,
// retry loops) schedule themselves without allocating a fresh closure per
// event.
func (e *Engine) ScheduleFn(at Cycle, fn func(any), arg any) {
	e.push(event{at: at, afn: fn, arg: arg})
}

// AfterFn runs fn(arg) delay cycles from now (the allocation-free variant of
// After; see ScheduleFn).
func (e *Engine) AfterFn(delay Cycle, fn func(any), arg any) {
	e.ScheduleFn(e.now+delay, fn, arg)
}

// fire advances time to ev and executes it.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.fired++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.afn(ev.arg)
	}
}

// head returns the earliest queued event (nil when none) and whether it is
// the same-cycle FIFO's head rather than the heap top.
func (e *Engine) head() (*event, bool) {
	if e.nowHead < len(e.nowq) {
		f := &e.nowq[e.nowHead]
		// The FIFO head is at the current cycle; the heap top can only tie
		// it on cycle, in which case seq decides.
		if len(e.heap) > 0 && e.heap[0].before(f) {
			return &e.heap[0], false
		}
		return f, true
	}
	if len(e.heap) > 0 {
		return &e.heap[0], false
	}
	return nil, false
}

// step fires the earliest real event if its cycle is at most limit, first
// passing the parked ticks that precede it in (cycle, seq) order. It
// reports false, firing nothing, when no real event is due by limit; every
// parked tick at or before limit has then been passed. With no limit and
// only parked polls that nothing will wake, it never returns, as the
// re-arming callbacks they stand for would fire forever.
func (e *Engine) step(limit Cycle) bool {
	for {
		ev, fifo := e.head()
		if len(e.parked) > 0 && (ev == nil || ev.at >= e.parkAt) {
			p := e.earliestParked()
			if ev == nil || p.before(ev) {
				if p.at > limit {
					return false
				}
				if p.at >= p.due {
					e.unpark(p)
					e.now = p.at
					e.fired++
					p.fn(p.arg)
					return true
				}
				e.pass(p)
				continue
			}
		}
		if ev == nil || ev.at > limit {
			return false
		}
		var x event
		if fifo {
			x = *ev
			*ev = event{} // release callback references
			e.nowHead++
			if e.nowHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowHead = 0
			}
		} else {
			x = e.heapPop()
		}
		e.fire(&x)
		return true
	}
}

// Step executes the earliest pending real event, advancing time to it and
// passing the parked ticks before it. It reports false, doing nothing, when
// no events remain. Pump loops that must re-check model state after every
// event (retrying a refused submission, waiting for a free slot) are built
// on it; they skip parked ticks, which change no state a pump re-checks.
func (e *Engine) Step() bool { return e.step(Never) }

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamp <= deadline and passes every
// parked tick at or before it, then sets Now to deadline if the simulation
// has not already passed it. The caller acts at the deadline, so the
// sequence numbers those ticks spend must already be spent.
func (e *Engine) RunUntil(deadline Cycle) {
	for e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile executes events until cond reports false or no events remain.
// cond is checked before each event.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// PassUntil passes every parked tick at or before limit that precedes the
// next real event, leaving Now at the last one passed. It fires nothing: a
// power-fail cut calls it once NextAt lies beyond the cut, so the clock
// stops where the last (no-op) poll at or before the cut left it.
func (e *Engine) PassUntil(limit Cycle) {
	for len(e.parked) > 0 {
		p := e.earliestParked()
		if p.at > limit || p.at >= p.due {
			return
		}
		if ev, _ := e.head(); ev != nil && !p.before(ev) {
			return
		}
		e.pass(p)
	}
}

// ------------------------------------------------------------------- heap

// The heap is 4-ary: children of node i are 4i+1..4i+4. Compared to a binary
// heap this halves the tree depth, trading slightly more comparisons per
// level for far fewer event moves — a win because event values are several
// words wide. Sift operations move the displaced element through a hole
// instead of swapping, so each level costs one copy.

func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release callback references
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
