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
// without allocating a fresh closure per event (see ScheduleFn). rid is the
// recurring-callback registration the event was scheduled through (0 for
// plain closures); only rid-carrying events can cross a checkpoint, because
// they are re-created from the registry instead of serializing code.
//
// tag additionally carries the shard of the event in its top 16 bits (see
// Shard): shard 0 is the home shard, whose events may touch anything and
// therefore always run exclusively; a nonzero shard promises the callback
// only touches that shard's state, which is what lets a round of same-cycle
// events from distinct shards execute concurrently. Packing shard with rid
// keeps the event at 56 bytes — heap traffic is the engine's hottest path,
// and every extra word is copied on each push, pop, and sift.
type event struct {
	at  Cycle
	seq uint64
	tag uint64 // rid in the low 48 bits, shard in the high 16
	fn  func()
	afn func(any)
	arg any
}

// ridMask extracts the recurring-callback ID from an event tag; RegisterRecurring
// rejects IDs that would not fit.
const ridMask = uint64(1)<<48 - 1

func mkTag(rid uint64, shard int32) uint64 { return rid | uint64(shard)<<48 }

func (ev *event) ridOf() uint64  { return ev.tag & ridMask }
func (ev *event) shardOf() int32 { return int32(ev.tag >> 48) }

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
// number, and the dispatcher always fires the least (at, seq) event next.
//
// The zero value is ready to use. Engine is not safe for concurrent use from
// outside; the simulation model here is single-threaded by design
// (determinism first). The one sanctioned form of concurrency lives inside
// the engine itself: shard-tagged same-cycle events may execute on worker
// goroutines between two deterministic barriers (see Shard, SetParallel, and
// parallel.go), with every observable ordering — (cycle, seq) assignment,
// fired/peak counters, queue contents — identical to serial execution.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64
	peak  int // high-water mark of Pending(), updated on every schedule

	// sharded is true on shard handles and on root engines with shards —
	// the single hot-path test that diverts the Schedule family off the
	// plain fast path. Kept adjacent to the clock fields so the fast path
	// touches one cache line for its checks.
	sharded bool

	// groupRemain counts round events already popped from the queues but
	// not yet executed, so Pending() and the peak accounting during an
	// inline round match pure per-event stepping exactly.
	groupRemain int

	// heap holds events with at > now (at insertion time), ordered as a
	// 4-ary min-heap by (at, seq).
	heap []event

	// nowq is the same-cycle FIFO: events scheduled at or before the
	// current cycle. Invariant: every live nowq entry has at == now, and
	// the queue drains completely before now can advance (no pending event
	// can be earlier). Entries are in increasing seq order by construction.
	nowq    []event
	nowHead int

	// recurring maps registered callback IDs to their bound callbacks; see
	// RegisterRecurring.
	recurring map[uint64]func()

	// root is non-nil on shard handles returned by Shard: a handle shares
	// all queue state with its root engine and only contributes its shard
	// tag to events scheduled through it. shard is the handle's tag (0 on
	// a root engine). par is non-nil on a root engine once Shard has been
	// called; it holds the round-execution state (parallel.go). Once par
	// is set the engine steps in rounds rather than single events — the
	// round structure is intrinsic and identical at every parallelism
	// level, so results never depend on SetParallel.
	root  *Engine
	shard int32
	par   *parEngine
}

// NewEngine returns an engine starting at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// rootEngine resolves a shard handle to the engine owning the state.
func (e *Engine) rootEngine() *Engine {
	if e.root != nil {
		return e.root
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.rootEngine().now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.rootEngine().fired }

// Pending returns the number of scheduled, not yet executed events.
func (e *Engine) Pending() int {
	r := e.rootEngine()
	return len(r.heap) + len(r.nowq) - r.nowHead + r.groupRemain
}

// PeakPending returns the highest Pending() observed across the run — the
// peak queue depth reported in observability digests.
func (e *Engine) PeakPending() int { return e.rootEngine().peak }

// notePeak updates the pending high-water mark; called on every schedule.
func (e *Engine) notePeak() {
	if p := len(e.heap) + len(e.nowq) - e.nowHead + e.groupRemain; p > e.peak {
		e.peak = p
	}
}

// NextAt peeks at the timestamp of the earliest pending event. ok is false
// when no events are scheduled. Used by drivers that must stop the
// simulation at an exact cycle (power-fail cuts) without firing anything
// beyond it.
func (e *Engine) NextAt() (Cycle, bool) {
	r := e.rootEngine()
	if r.nowHead < len(r.nowq) {
		// FIFO entries are at the current cycle; nothing can be earlier.
		return r.nowq[r.nowHead].at, true
	}
	if len(r.heap) == 0 {
		return 0, false
	}
	return r.heap[0].at, true
}

// Schedule runs fn at absolute cycle at. Scheduling in the past (at < Now) is
// treated as "now": the event fires before time advances further.
func (e *Engine) Schedule(at Cycle, fn func()) {
	if e.sharded {
		e.rootEngine().schedule(e.shard, e.shard, at, 0, fn, nil, nil)
		return
	}
	e.seq++
	if at <= e.now {
		e.nowq = append(e.nowq, event{at: e.now, seq: e.seq, fn: fn})
		e.notePeak()
		return
	}
	e.heapPush(event{at: at, seq: e.seq, fn: fn})
	e.notePeak()
}

// After runs fn delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.Schedule(e.Now()+delay, fn) }

// ScheduleFn runs fn(arg) at absolute cycle at, with the same past-clamping
// semantics as Schedule. fn is typically a package-level function and arg the
// component it operates on, so recurring events (drain engines, pollers,
// retry loops) schedule themselves without allocating a fresh closure per
// event.
func (e *Engine) ScheduleFn(at Cycle, fn func(any), arg any) {
	if e.sharded {
		e.rootEngine().schedule(e.shard, e.shard, at, 0, nil, fn, arg)
		return
	}
	e.seq++
	if at <= e.now {
		e.nowq = append(e.nowq, event{at: e.now, seq: e.seq, afn: fn, arg: arg})
		e.notePeak()
		return
	}
	e.heapPush(event{at: at, seq: e.seq, afn: fn, arg: arg})
	e.notePeak()
}

// AfterFn runs fn(arg) delay cycles from now (the allocation-free variant of
// After; see ScheduleFn).
func (e *Engine) AfterFn(delay Cycle, fn func(any), arg any) {
	e.ScheduleFn(e.Now()+delay, fn, arg)
}

// ScheduleHomeFn runs fn(arg) at absolute cycle at on the home shard
// (shard 0), regardless of which shard handle the call goes through. Home
// events run exclusively, so this is how shard-local code hands a result to
// cross-shard state: a completion that must invoke a driver callback,
// decrement a counter shared across channels, or touch the iMC schedules
// the touching part home instead of doing it in place. Like ScheduleFn it
// takes a (func(any), any) pair, so per-access completions cross to home
// without allocating.
func (e *Engine) ScheduleHomeFn(at Cycle, fn func(any), arg any) {
	e.rootEngine().schedule(e.shard, 0, at, 0, nil, fn, arg)
}

// AfterHomeFn runs fn(arg) delay cycles from now on the home shard (see
// ScheduleHomeFn).
func (e *Engine) AfterHomeFn(delay Cycle, fn func(any), arg any) {
	r := e.rootEngine()
	r.schedule(e.shard, 0, r.now+delay, 0, nil, fn, arg)
}

// DeferHome runs fn on the home shard at the current cycle: after the
// in-flight round completes, before time advances. It is the funnel for
// cross-shard effects that must stay at the same timestamp (fence
// completions, read returns).
func (e *Engine) DeferHome(fn func()) {
	r := e.rootEngine()
	r.schedule(e.shard, 0, r.now, 0, fn, nil, nil)
}

// schedule is the single insertion point behind every Schedule variant on a
// sharded engine. caller is the shard whose event context issued the call (0
// for the root handle), target the shard tag for the new event. During an
// executing round, calls from shard events are buffered per shard and merged
// deterministically at the barrier (parallel rounds) or inserted directly
// (inline rounds) — either way the resulting (cycle, seq) assignment is the
// one pure serial execution would produce.
func (e *Engine) schedule(caller, target int32, at Cycle, rid uint64, fn func(), afn func(any), arg any) {
	if p := e.par; p != nil && p.inRound {
		if caller == 0 {
			panic("sim: scheduling through the root engine from inside a shard round (funnel via DeferHome/AfterHomeFn)")
		}
		if p.collecting {
			p.buffer(caller, target, at, rid, fn, afn, arg)
			return
		}
	}
	e.seq++
	tag := mkTag(rid, target)
	if at <= e.now {
		e.nowq = append(e.nowq, event{at: e.now, seq: e.seq, tag: tag, fn: fn, afn: afn, arg: arg})
	} else {
		e.heapPush(event{at: at, seq: e.seq, tag: tag, fn: fn, afn: afn, arg: arg})
	}
	e.notePeak()
}

// RegisterRecurring binds a callback to a stable numeric ID. Events scheduled
// through ScheduleRecurring carry the ID instead of a closure, which is what
// lets a checkpoint serialize them: SaveState records (at, seq, id) and
// LoadState re-creates the event from the registry, provided the restoring
// engine registered the same ID first. Re-registering an ID rebinds it.
func (e *Engine) RegisterRecurring(id uint64, fn func()) {
	r := e.rootEngine()
	if id == 0 {
		panic("sim: recurring callback id 0 is reserved")
	}
	if fn == nil {
		panic("sim: nil recurring callback")
	}
	if id&^ridMask != 0 {
		panic("sim: recurring callback id exceeds 48 bits")
	}
	if r.recurring == nil {
		r.recurring = make(map[uint64]func())
	}
	r.recurring[id] = fn
}

// ScheduleRecurring schedules the callback registered under id at absolute
// cycle at (past-clamped like Schedule). It panics on an unregistered ID —
// that is a wiring bug, not a runtime condition. Through a shard handle the
// event carries the handle's shard tag, and SaveState preserves the tag, so
// a restored run keeps the exact round structure of an uninterrupted one.
func (e *Engine) ScheduleRecurring(at Cycle, id uint64) {
	r := e.rootEngine()
	fn, ok := r.recurring[id]
	if !ok {
		panic("sim: ScheduleRecurring on unregistered id")
	}
	if e.sharded {
		r.schedule(e.shard, e.shard, at, id, fn, nil, nil)
		return
	}
	e.seq++
	if at <= e.now {
		e.nowq = append(e.nowq, event{at: e.now, seq: e.seq, tag: id, fn: fn})
		e.notePeak()
		return
	}
	e.heapPush(event{at: at, seq: e.seq, tag: id, fn: fn})
	e.notePeak()
}

// AfterRecurring schedules the callback registered under id delay cycles
// from now.
func (e *Engine) AfterRecurring(delay Cycle, id uint64) {
	e.ScheduleRecurring(e.Now()+delay, id)
}

// step executes the earliest pending event, advancing time to it.
// It reports false when no events remain.
func (e *Engine) step() bool {
	var ev event
	if e.nowHead < len(e.nowq) {
		// The FIFO head is at the current cycle; the heap top can only tie
		// it on cycle, in which case seq decides.
		if len(e.heap) > 0 && e.heap[0].before(&e.nowq[e.nowHead]) {
			ev = e.heapPop()
		} else {
			ev = e.nowq[e.nowHead]
			e.nowq[e.nowHead] = event{} // release callback references
			e.nowHead++
			if e.nowHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowHead = 0
			}
		}
	} else if len(e.heap) > 0 {
		ev = e.heapPop()
	} else {
		return false
	}
	e.now = ev.at
	e.fired++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.afn(ev.arg)
	}
	return true
}

// popUpTo pops the earliest pending event if its timestamp is <= deadline.
// It fuses the NextAt peek with the pop, so the run loops pay one ordering
// decision per event instead of two (the RunUntil fast path).
func (e *Engine) popUpTo(deadline Cycle) (event, bool) {
	if e.nowHead < len(e.nowq) {
		f := &e.nowq[e.nowHead]
		// The FIFO head is at the current cycle; the heap top can only tie
		// it on cycle, in which case seq decides.
		if len(e.heap) > 0 && e.heap[0].before(f) {
			if e.heap[0].at > deadline {
				return event{}, false
			}
			return e.heapPop(), true
		}
		if f.at > deadline {
			return event{}, false
		}
		ev := *f
		*f = event{} // release callback references
		e.nowHead++
		if e.nowHead == len(e.nowq) {
			e.nowq = e.nowq[:0]
			e.nowHead = 0
		}
		return ev, true
	}
	if len(e.heap) > 0 && e.heap[0].at <= deadline {
		return e.heapPop(), true
	}
	return event{}, false
}

// Run executes events until the queue is empty. On a sharded engine it steps
// in rounds (see stepRound); on a plain engine, single events.
func (e *Engine) Run() {
	if e.root != nil {
		e.root.Run()
		return
	}
	if e.par != nil {
		for e.stepRound() {
		}
		return
	}
	for e.step() {
	}
}

// RunUntil executes events with timestamp <= deadline, then sets Now to
// deadline if the simulation has not already passed it. Rounds never span
// cycles, so on a sharded engine the cut still lands exactly at deadline.
func (e *Engine) RunUntil(deadline Cycle) {
	if e.root != nil {
		e.root.RunUntil(deadline)
		return
	}
	if e.par != nil {
		for {
			at, ok := e.NextAt()
			if !ok || at > deadline {
				break
			}
			e.stepRound()
		}
	} else {
		for {
			ev, ok := e.popUpTo(deadline)
			if !ok {
				break
			}
			e.now = ev.at
			e.fired++
			if ev.fn != nil {
				ev.fn()
			} else {
				ev.afn(ev.arg)
			}
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile executes events until cond reports false or no events remain.
// cond is checked before each step: a single event on a plain engine, a
// round on a sharded one. Round granularity is intrinsic to sharded engines
// — it does not vary with SetParallel — so pump loops built on RunWhile
// observe identical progress at every parallelism level.
func (e *Engine) RunWhile(cond func() bool) {
	if e.root != nil {
		e.root.RunWhile(cond)
		return
	}
	if e.par != nil {
		for cond() && e.stepRound() {
		}
		return
	}
	for cond() && e.step() {
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
