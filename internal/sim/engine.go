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

import "math/bits"

// Cycle is a simulation timestamp in clock cycles of the simulated memory
// subsystem. The zero value is the beginning of time.
type Cycle uint64

// Never is a sentinel cycle value meaning "not scheduled / not happening".
const Never = Cycle(1<<63 - 1)

// event is a scheduled callback: it fires fn(arg). seq breaks ties so
// same-cycle events fire in the order they were scheduled, making runs
// reproducible. A closure passed to Schedule or After rides as the arg of
// callFunc, so every event has this one form.
type event struct {
	at  Cycle
	seq uint64
	fn  func(any)
	arg any
}

// callFunc fires a closure scheduled with Schedule or After. A func value is
// a single pointer, so storing one in arg allocates nothing.
func callFunc(a any) { a.(func())() }

// before orders events by (at, seq): earliest cycle first, scheduling order
// within a cycle.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The calendar's geometry: nBuckets buckets of 2^bucketShift cycles each,
// covering a horizon of nBuckets<<bucketShift = 4,096 cycles. The horizon
// covers every push distance chase-read measures (media completions reach
// 2,343 cycles) and 98.6% of store-write's; the anchors and the occupancy
// bitmap cost 2 KiB of Engine (DESIGN.md §9).
const (
	bucketShift = 3
	nBuckets    = 512
	occWords    = nBuckets / 64
)

// node is one ring slot of the engine's node slab. next links the bucket's
// entries in (at, seq) order, the last one back to the first; in a free node
// it holds the next free node's index plus one.
type node struct {
	event
	next int32
}

// Engine is a discrete-event scheduler with cycle resolution.
//
// Events less than one horizon past the base of now's bucket live in a
// calendar queue: a ring of fixed-width cycle buckets, each a circular list
// of nodes kept in (at, seq) order and anchored at its last entry. Farther
// events go to a 4-ary min-heap of event values, the overflow store, and
// never move into the ring; the queue head is whichever comes first in
// (at, seq) order of the ring's earliest event and the heap top. Every
// event carries a globally increasing sequence number, and the dispatcher
// always fires the least (at, seq) event next, one at a time. Parked polls
// (see Poll) and lanes of passive slots (see Lane) sit beside both: their
// ticks and slots hold (at, seq) places in the same order but are passed,
// not fired (a parked tick until it is due).
//
// The zero value is ready to use. Engine is not safe for concurrent use; the
// simulation model here is single-threaded by design (determinism first).
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64
	peak  int // high-water mark of Pending(), updated on every schedule

	// counts is empty unless built with the simcount tag (count.go).
	counts engineCounts

	// nodes is the slab the ring's entries live in, linked by index; free
	// is one plus the first free node's index (0: none free).
	nodes []node
	free  int32
	// tail anchors each occupied bucket at its last (latest) entry, whose
	// next is the bucket's first. occ has a bit set per occupied bucket, and
	// ringN counts the ring's entries. Every ring entry lies within one
	// horizon of now's bucket base, so one lap of occ from now's bucket
	// meets the entries in (at, seq) order.
	tail  [nBuckets]int32
	occ   [occWords]uint64
	ringN int

	// heap is the overflow store: events that were a horizon or more ahead
	// of now's bucket base when scheduled, as a 4-ary min-heap by (at, seq).
	heap []event

	// parked holds the polls whose next tick is parked (see Poll), in no
	// particular order, and lanes lists the lanes with unpassed slots (see
	// Lane); laneN counts those slots. passAt is at most the earliest parked
	// tick's or lane slot's cycle, so only an event at or after it needs the
	// two consulted.
	parked []*Poll
	lanes  *Lane
	laneN  int
	passAt Cycle
}

// NewEngine returns an engine starting at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not yet executed events. A
// parked poll counts as the one pending event its re-arming callback would
// hold, and an unpassed lane slot as the event it stands for.
func (e *Engine) Pending() int {
	return e.ringN + len(e.heap) + len(e.parked) + e.laneN
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
// queued event or the tick a parked poll is due to fire, never a lane slot.
// ok is false when there is none.
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

// push schedules fn(arg) at cycle at, stamping it with the next sequence
// number. Scheduling in the past (at < Now) is treated as "now": the event
// joins now's bucket and fires before time advances further.
func (e *Engine) push(at Cycle, fn func(any), arg any) {
	e.seq++
	if at < e.now {
		at = e.now
	}
	if at>>bucketShift-e.now>>bucketShift < nBuckets {
		e.ringPush(at, e.seq, fn, arg)
	} else {
		e.heapPush(event{at: at, seq: e.seq, fn: fn, arg: arg})
	}
	e.notePeak()
}

// Schedule runs fn at absolute cycle at. Scheduling in the past (at < Now) is
// treated as "now": the event fires before time advances further.
func (e *Engine) Schedule(at Cycle, fn func()) { e.push(at, callFunc, fn) }

// After runs fn delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.Schedule(e.now+delay, fn) }

// ScheduleFn runs fn(arg) at absolute cycle at, with the same past-clamping
// semantics as Schedule. fn is typically a package-level function and arg the
// component it operates on, so recurring events (drain engines, pollers,
// retry loops) schedule themselves without allocating a fresh closure per
// event.
func (e *Engine) ScheduleFn(at Cycle, fn func(any), arg any) { e.push(at, fn, arg) }

// AfterFn runs fn(arg) delay cycles from now (the allocation-free variant of
// After; see ScheduleFn).
func (e *Engine) AfterFn(delay Cycle, fn func(any), arg any) {
	e.ScheduleFn(e.now+delay, fn, arg)
}

// head returns the earliest queued event (nil when none) and the ring
// bucket holding it first, or -1 when it is the heap top.
func (e *Engine) head() (*event, int) {
	var ev *event
	b := -1
	if e.ringN > 0 {
		b = e.firstBucket()
		ev = &e.nodes[e.nodes[e.tail[b]].next].event
	}
	if len(e.heap) > 0 && (ev == nil || e.heap[0].before(ev)) {
		return &e.heap[0], -1
	}
	return ev, b
}

// StepUntil fires the earliest real event if its cycle is at most limit,
// first passing the parked ticks and lane slots that precede it in (cycle,
// seq) order. It reports false, firing nothing, when no real event is due
// by limit; every parked tick and lane slot at or before limit has then
// been passed, so the clock stands at the last of them, where the no-op
// firing it stands for would have left it. A power-fail cut at cycle c is
// therefore `for e.StepUntil(c) {}`. With no limit and only parked polls
// that nothing will wake, it never returns, as the re-arming callbacks
// they stand for would fire forever.
//
// The queue head is looked up once per call: passing a tick or a slot
// pushes and pops nothing, and the clock it moves stays at or before the
// head. The ticks and slots before the stop pass in one loop (passBefore).
func (e *Engine) StepUntil(limit Cycle) bool {
	ev, b := e.head()
	if (len(e.parked) > 0 || e.lanes != nil) && (ev == nil || ev.at >= e.passAt) {
		if p := e.passBefore(ev, limit); p != nil {
			e.unpark(p)
			e.now = p.at
			e.fired++
			e.counts.fire(p.fn, p.arg)
			p.fn(p.arg)
			return true
		}
	}
	if ev == nil || ev.at > limit {
		return false
	}
	e.now = ev.at
	var fn func(any)
	var arg any
	if b >= 0 {
		fn, arg = e.ringPop(b)
	} else {
		fn, arg = e.heapPop()
	}
	e.fired++
	e.counts.fire(fn, arg)
	fn(arg)
	return true
}

// Step executes the earliest pending real event, advancing time to it and
// passing the parked ticks and lane slots before it. It reports false when
// no real event remains, having passed every slot. Pump loops that must
// re-check model state after every event (retrying a refused submission,
// waiting for a free slot) are built on it; they skip parked ticks and
// slots, which change no state a pump re-checks.
func (e *Engine) Step() bool { return e.StepUntil(Never) }

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamp <= deadline and passes every
// parked tick and lane slot at or before it, then sets Now to deadline if
// the simulation has not already passed it. The caller acts at the
// deadline, so the sequence numbers those ticks spend must already be
// spent.
func (e *Engine) RunUntil(deadline Cycle) {
	for e.StepUntil(deadline) {
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

// ------------------------------------------------------------------- ring

// ringPush stores the event (at, seq, fn, arg), which lies within one
// horizon of now's bucket base, in its bucket. The fields are written
// straight into the free node: passing an event value would spill it to the
// stack and copy it again, through a write barrier while the GC marks. A
// bucket stays in (at, seq) order: the event has the largest seq, so it goes
// after every entry of its own cycle — at the tail in the common case,
// otherwise before the first entry of a later cycle.
func (e *Engine) ringPush(at Cycle, seq uint64, fn func(any), arg any) {
	var i int32
	if e.free != 0 {
		i = e.free - 1
		e.free = e.nodes[i].next
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	n := &e.nodes[i]
	n.at, n.seq, n.fn, n.arg = at, seq, fn, arg
	b := int(at>>bucketShift) & (nBuckets - 1)
	e.ringN++
	w, bit := b>>6, uint64(1)<<(b&63)
	if e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		e.nodes[i].next = i
		e.tail[b] = i
		return
	}
	t := e.tail[b]
	if at >= e.nodes[t].at {
		e.nodes[i].next = e.nodes[t].next
		e.nodes[t].next = i
		e.tail[b] = i
		return
	}
	// The tail is later than the event, so the walk stops before wrapping.
	prev, cur := t, e.nodes[t].next
	for e.nodes[cur].at <= at {
		prev, cur = cur, e.nodes[cur].next
	}
	e.nodes[i].next = cur
	e.nodes[prev].next = i
}

// firstBucket returns the first occupied bucket in one lap of the ring from
// now's bucket; the ring must not be empty. Bits below now's bucket in its
// own word are the lap's last buckets, met again after the wrap.
func (e *Engine) firstBucket() int {
	b := int(e.now>>bucketShift) & (nBuckets - 1)
	w := b >> 6
	word := e.occ[w] >> (b & 63) << (b & 63)
	for word == 0 {
		w = (w + 1) & (occWords - 1)
		word = e.occ[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// ringPop removes bucket b's first entry and returns its callback, zeroing
// the node so the slab does not pin a dead callback.
func (e *Engine) ringPop(b int) (func(any), any) {
	t := e.tail[b]
	h := e.nodes[t].next
	if h == t {
		e.occ[b>>6] &^= 1 << (b & 63)
	} else {
		e.nodes[t].next = e.nodes[h].next
	}
	n := &e.nodes[h]
	fn, arg := n.fn, n.arg
	*n = node{next: e.free}
	e.free = h + 1
	e.ringN--
	return fn, arg
}

// ------------------------------------------------------------------- heap

// The overflow heap is 4-ary: children of node i are 4i+1..4i+4. Compared
// to a binary heap this halves the tree depth, trading slightly more
// comparisons per level for far fewer event moves — a win because event
// values are several words wide. Sift operations move the displaced element
// through a hole instead of swapping, so each level costs one copy.

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

// heapPop removes the heap top and returns its callback.
func (e *Engine) heapPop() (func(any), any) {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release callback references
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top.fn, top.arg
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
	return top.fn, top.arg
}
