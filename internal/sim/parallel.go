package sim

import (
	"sync"

	"repro/internal/pool"
)

// Intra-simulation parallelism.
//
// A sharded engine partitions its event population by the state each event
// touches: shard 0 ("home") events may touch anything — the driver, the iMC,
// cross-channel bookkeeping — and always execute exclusively; events tagged
// with a nonzero shard (one per channel/DIMM pair in vans) touch only that
// shard's state. Same-cycle events from nonzero shards are therefore
// independent and may execute concurrently between two barriers.
//
// The unit of execution is the round: either one home event, or the maximal
// (at, seq)-ordered prefix of same-cycle nonzero-shard events at the front
// of the queue. Round membership is fixed by popping before anything runs,
// so the round structure is a pure function of the event stream — identical
// whether a round then executes inline on one goroutine or fanned out over
// workers. Within a parallel round every Schedule-family call is buffered in
// a per-shard side buffer (single writer: the worker driving that shard) and
// replayed at the barrier in global (at, seq) order of the issuing events,
// reproducing exactly the seq assignment, queue contents, and fired/peak
// counters of serial execution. That is the whole determinism argument:
// parallelism is an execution strategy, never an ordering.

// schedReq is one Schedule-family call buffered during a parallel round.
type schedReq struct {
	parent uint64 // seq of the round event that issued the call
	target int32
	at     Cycle
	rid    uint64
	fn     func()
	afn    func(any)
	arg    any
}

// shardBuf holds one shard's round-local state: the bucket of round events
// assigned to it, the seq of the event its worker is currently executing,
// and the schedules those events issued. Only that worker writes it while a
// round is in flight; the barrier merge drains it afterwards.
type shardBuf struct {
	cur  uint64
	reqs []schedReq
	next int
	idxs []int32 // indexes into parEngine.round
}

// parEngine is the round-execution state hung off a root engine once Shard
// has been called.
type parEngine struct {
	workers int         // configured parallelism; <= 1 executes rounds inline
	gate    func() bool // when non-nil and true, force inline (e.g. tracing)
	handles []*Engine   // memoized shard handles, index = shard id
	bufs    []shardBuf
	round   []event
	order   []int32 // distinct shards of the current round, first-seen order

	// inRound is true while round events execute; root-handle scheduling is
	// a funneling bug then and panics in both execution modes. collecting
	// is additionally true while workers may run concurrently, diverting
	// shard-handle schedules into the side buffers.
	inRound    bool
	collecting bool
}

// Shard returns the scheduling handle for shard i. Handles share all state
// with the root engine; the only difference is that events scheduled through
// handle i carry shard tag i, promising their callbacks touch only shard i's
// state. Shard(0) — and any i <= 0 — returns the engine itself: the home
// shard, whose events run exclusively. Calling Shard at all switches the
// engine to round-granular stepping (see RunWhile); it does not by itself
// enable concurrency — that takes SetParallel.
func (e *Engine) Shard(i int) *Engine {
	r := e.rootEngine()
	if i <= 0 {
		return r
	}
	p := r.ensurePar()
	for len(p.handles) <= i {
		p.handles = append(p.handles, nil)
	}
	if p.handles[i] == nil {
		p.handles[i] = &Engine{root: r, shard: int32(i), sharded: true}
	}
	return p.handles[i]
}

// SetParallel sets how many goroutines may execute one round, n <= 1 meaning
// fully inline. The actual fan-out per round is additionally capped by the
// number of distinct shards in the round and by the process-wide
// pool budget (pool.TryLease), so sweep-level and intra-simulation
// parallelism never oversubscribe GOMAXPROCS. Results are identical at
// every setting — this knob trades goroutine overhead for wall-clock only.
func (e *Engine) SetParallel(n int) {
	if n < 1 {
		n = 1
	}
	e.rootEngine().ensurePar().workers = n
}

// SetParallelGate installs a predicate checked before each round; while it
// returns true, rounds execute inline. vans points this at obs.Active so
// lifecycle tracing (a shared append-only buffer) is never written
// concurrently — the round structure is unchanged, so neither are results.
func (e *Engine) SetParallelGate(f func() bool) {
	e.rootEngine().ensurePar().gate = f
}

func (e *Engine) ensurePar() *parEngine {
	if e.par == nil {
		e.par = &parEngine{workers: 1}
		e.sharded = true
	}
	return e.par
}

// peekEvent returns the earliest pending event without popping it.
func (e *Engine) peekEvent() *event {
	if e.nowHead < len(e.nowq) {
		f := &e.nowq[e.nowHead]
		if len(e.heap) > 0 && e.heap[0].before(f) {
			return &e.heap[0]
		}
		return f
	}
	if len(e.heap) > 0 {
		return &e.heap[0]
	}
	return nil
}

// stepRound executes the next round and reports whether anything ran. A home
// event is its own round; otherwise the round is the maximal same-cycle run
// of nonzero-shard events at the queue front, with membership fixed before
// anything executes (events scheduled during the round — necessarily with
// equal or later timestamps — land in later rounds).
func (e *Engine) stepRound() bool {
	lead := e.peekEvent()
	if lead == nil {
		return false
	}
	if lead.shardOf() == 0 {
		return e.step()
	}
	p := e.par
	at := lead.at
	p.round = p.round[:0]
	for {
		ev := e.peekEvent()
		if ev == nil || ev.at != at || ev.shardOf() == 0 {
			break
		}
		pe, _ := e.popUpTo(at)
		p.round = append(p.round, pe)
	}
	e.now = at
	e.runRound()
	return true
}

// runRound executes the popped round, inline or fanned out.
func (e *Engine) runRound() {
	p := e.par
	n := len(p.round)

	// Partition into per-shard buckets in first-appearance order.
	p.order = p.order[:0]
	maxShard := int32(0)
	for i := range p.round {
		if s := p.round[i].shardOf(); s > maxShard {
			maxShard = s
		}
	}
	for int32(len(p.bufs)) <= maxShard {
		p.bufs = append(p.bufs, shardBuf{})
	}
	for i := range p.round {
		s := p.round[i].shardOf()
		b := &p.bufs[s]
		if len(b.idxs) == 0 {
			p.order = append(p.order, s)
		}
		b.idxs = append(b.idxs, int32(i))
	}

	want := p.workers
	if want > len(p.order) {
		want = len(p.order)
	}
	if want > 1 && p.gate != nil && p.gate() {
		want = 1
	}
	extra := 0
	if want > 1 {
		extra = pool.TryLease(want - 1)
	}

	if extra == 0 {
		// Inline: run the round in (at, seq) order on this goroutine with
		// direct scheduling. groupRemain keeps Pending()/peak accounting
		// identical to pure per-event stepping.
		for _, s := range p.order {
			p.bufs[s].idxs = p.bufs[s].idxs[:0]
		}
		p.inRound = true
		e.groupRemain = n
		for i := range p.round {
			e.groupRemain--
			e.fired++
			ev := &p.round[i]
			if ev.fn != nil {
				ev.fn()
			} else {
				ev.afn(ev.arg)
			}
			*ev = event{}
		}
		p.inRound = false
		return
	}

	// Parallel: whole buckets are assigned round-robin to extra+1 workers
	// (this goroutine participates). Each worker executes its buckets'
	// events in seq order; schedules divert into the shard's side buffer.
	workers := extra + 1
	var (
		wg    sync.WaitGroup
		panMu sync.Mutex
		pan   any
	)
	p.inRound = true
	p.collecting = true
	runBuckets := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				panMu.Lock()
				if pan == nil {
					pan = r
				}
				panMu.Unlock()
			}
		}()
		for k := w; k < len(p.order); k += workers {
			b := &p.bufs[p.order[k]]
			for _, idx := range b.idxs {
				ev := &p.round[idx]
				b.cur = ev.seq
				if ev.fn != nil {
					ev.fn()
				} else {
					ev.afn(ev.arg)
				}
			}
		}
	}
	wg.Add(extra)
	for w := 1; w <= extra; w++ {
		go func(w int) {
			defer wg.Done()
			runBuckets(w)
		}(w)
	}
	runBuckets(0)
	wg.Wait()
	p.collecting = false
	p.inRound = false
	pool.Release(extra)
	if pan != nil {
		// A panicking worker leaves its buffers mid-write; surface the panic
		// instead of merging garbage (the simulation is dead either way).
		panic(pan)
	}

	// Barrier merge: walk the round in global (at, seq) order; each event's
	// buffered schedules sit next in its shard's buffer (workers execute a
	// shard's events in seq order, one event's calls buffer in issue order),
	// so consuming the consecutive run with matching parent seq replays the
	// exact serial insertion order. pending/peak retrace serial notePeak:
	// one decrement per pop, one increment + high-water check per schedule.
	pending := len(e.heap) + len(e.nowq) - e.nowHead + n
	peak := e.peak
	for i := range p.round {
		ev := &p.round[i]
		pending--
		b := &p.bufs[ev.shardOf()]
		for b.next < len(b.reqs) && b.reqs[b.next].parent == ev.seq {
			rq := &b.reqs[b.next]
			b.next++
			e.seq++
			ne := event{at: rq.at, seq: e.seq, tag: mkTag(rq.rid, rq.target),
				fn: rq.fn, afn: rq.afn, arg: rq.arg}
			if rq.at <= e.now {
				ne.at = e.now
				e.nowq = append(e.nowq, ne)
			} else {
				e.heapPush(ne)
			}
			pending++
			if pending > peak {
				peak = pending
			}
			*rq = schedReq{} // release callback references
		}
		*ev = event{}
	}
	e.peak = peak
	e.fired += uint64(n)
	for _, s := range p.order {
		b := &p.bufs[s]
		b.reqs = b.reqs[:0]
		b.next = 0
		b.idxs = b.idxs[:0]
	}
}

// buffer records a Schedule-family call issued from inside a parallel round.
// Only the worker driving shard `caller` appends to that shard's buffer, so
// no locking is needed.
func (p *parEngine) buffer(caller, target int32, at Cycle, rid uint64, fn func(), afn func(any), arg any) {
	if caller == 0 {
		panic("sim: scheduling through the root engine from inside a shard round (funnel via DeferHome/AfterHomeFn)")
	}
	b := &p.bufs[caller]
	b.reqs = append(b.reqs, schedReq{parent: b.cur, target: target, at: at,
		rid: rid, fn: fn, afn: afn, arg: arg})
}
