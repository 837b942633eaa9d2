package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"
)

// ---------------------------------------------------------------- oracle
//
// The reference scheduler is the pre-rewrite implementation: a boxed
// container/heap ordered by (at, seq). The property test drives the real
// Engine through random schedules — including re-entrant scheduling from
// inside callbacks and partial RunUntil drains — and checks the firing
// sequence against the oracle's total order.

type oracleEvent struct {
	at  Cycle
	seq uint64
	id  int
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type firing struct {
	at Cycle
	id int
}

// TestEnginePropertyVsOracle checks the engine's firing sequence against a
// container/heap oracle over randomized schedules. Each trial drains partway
// with RunUntil, then to empty with Run, RunWhile or a Step loop in turn.
// Each trial then checks parked polls against the re-arming callbacks they
// stand for (pollScenario).
//
// Every schedule request is logged with its *effective* cycle (the engine
// clamps requests in the past to Now) in engine seq order: requests made
// inside a firing callback are logged during that firing, so log order is
// exactly seq order. Because a re-entrant child always requests a cycle at
// or after its parent's firing cycle, the engine's firing sequence is the
// global (at, seq) sort of the logged set — which is what the oracle
// computes.
func TestEnginePropertyVsOracle(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		e := NewEngine()

		type sched struct {
			at Cycle
			id int
		}
		var log []sched
		var got []firing
		nextID := 0

		var schedule func(at Cycle, depth int)
		schedule = func(at Cycle, depth int) {
			id := nextID
			nextID++
			eff := at
			if eff < e.Now() {
				eff = e.Now()
			}
			log = append(log, sched{eff, id})
			reentrant := depth < 2 && rng.Intn(4) == 0
			offset := Cycle(rng.Intn(20))
			e.Schedule(at, func() {
				got = append(got, firing{e.Now(), id})
				if reentrant {
					schedule(e.Now()+offset, depth+1)
				}
			})
		}

		// A batch of initial events, some at cycle 0, some beyond.
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			schedule(Cycle(rng.Intn(200)), 0)
		}
		// Drain partway, then schedule more — some now in the past, which
		// the engine must clamp to its advanced clock.
		e.RunUntil(Cycle(60 + rng.Intn(80)))
		m := rng.Intn(20)
		for i := 0; i < m; i++ {
			schedule(Cycle(rng.Intn(300)), 0)
		}
		switch trial % 3 {
		case 0:
			e.Run()
		case 1:
			e.RunWhile(func() bool { return true })
		default:
			for e.Step() {
			}
			if e.Step() {
				t.Fatalf("trial %d: Step reported an event on an empty engine", trial)
			}
		}

		// Replay the log on the oracle: log order is engine seq order, and
		// effective cycles are pre-clamped, so pushing everything up front
		// yields the same (at, seq) pairs the engine used.
		var o oracleHeap
		for seq, s := range log {
			heap.Push(&o, oracleEvent{at: s.at, seq: uint64(seq), id: s.id})
		}
		var want []firing
		for o.Len() > 0 {
			ev := heap.Pop(&o).(oracleEvent)
			want = append(want, firing{ev.at, ev.id})
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, oracle fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing %d: engine %+v, oracle %+v", trial, i, got[i], want[i])
			}
		}

		// Parked polls against the callbacks they stand for: the same
		// scenario runs once with literal AfterFn re-arming polls (whose
		// order the heap oracle above vouches for) and once with Poll.
		ref, refCut := pollScenario(int64(trial), false)
		park, parkCut := pollScenario(int64(trial), true)
		if len(park.firings) != len(ref.firings) {
			t.Fatalf("trial %d: parked run fired %d real events, re-arming run %d",
				trial, len(park.firings), len(ref.firings))
		}
		for i := range park.firings {
			if park.firings[i] != ref.firings[i] {
				t.Fatalf("trial %d: real firing %d: parked %+v, re-arming %+v",
					trial, i, park.firings[i], ref.firings[i])
			}
		}
		if parkCut != refCut {
			t.Fatalf("trial %d: at the cut parked (now, seq) = %+v, re-arming %+v", trial, parkCut, refCut)
		}
		if park.now != ref.now || park.seq != ref.seq {
			t.Fatalf("trial %d: parked run ended at (now %d, seq %d), re-arming run at (%d, %d)",
				trial, park.now, park.seq, ref.now, ref.seq)
		}
		if ref.passes > 0 && park.fired >= ref.fired {
			t.Fatalf("trial %d: parked run fired %d events, re-arming run %d: no tick was passed",
				trial, park.fired, ref.fired)
		}
	}
}

// pollRun is what pollScenario observed.
type pollRun struct {
	firings []firing // real work: ordinary events and polls that acted
	now     Cycle
	seq     uint64
	fired   uint64
	passes  int // ticks the re-arming form would have fired with nothing to do
}

// clock is an engine's (Now, seq) pair.
type clock struct {
	now Cycle
	seq uint64
}

// pollScenario drives one randomized schedule of ordinary events and polls.
// With parked false each poll is a callback that re-arms itself with
// AfterFn(period) while it has nothing to do; with parked true it is a
// Poll, woken by the mutators that give it work. Everything random is drawn
// only where real work happens, so both forms draw the same numbers as long
// as they fire the same real events in the same order.
//
// A poll acts when it has work or its due cycle has come. Acting logs a
// firing, may schedule a child event less than one period ahead (so it can
// land on a tick cycle), and either stops the poll for good or picks a new
// due cycle: a random later one, or none, with a mutator scheduled to hand
// it work. Mutators set work, move due cycles either way, or wake the
// parked form for nothing. The run drains partway with RunUntil, then pumps
// Step with an actor that submits between steps (accepted only while it
// holds tokens, so a refused submit has no effect), optionally cuts power
// through NextAt and PassUntil the way fault.RunToCut does, and finishes
// with Run.
func pollScenario(seed int64, parked bool) (pollRun, clock) {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	e := NewEngine()
	var run pollRun

	n := 1 + rng.Intn(4)
	type pollState struct {
		id     int
		period Cycle
		work   bool
		due    Cycle
		acts   int
		poll   Poll
	}
	ps := make([]*pollState, n)
	nextID := 1000
	var tick func(any)
	// rearm stands for the no-op branch: AfterFn(delay, tick, p) in the
	// re-arming form, a park in the other.
	rearm := func(p *pollState, delay Cycle) {
		if !parked {
			e.AfterFn(delay, tick, p)
			return
		}
		due := p.due
		if p.work {
			due = 0
		}
		p.poll.Park(delay, due)
	}
	wake := func(p *pollState) {
		if parked {
			p.poll.Wake()
		}
	}
	tokens := 0
	var event func(id int, depth int) func()
	event = func(id int, depth int) func() {
		return func() {
			run.firings = append(run.firings, firing{e.Now(), id})
			if rng.Intn(3) == 0 {
				tokens++
			}
			if depth < 2 && rng.Intn(3) == 0 {
				nextID++
				e.After(Cycle(rng.Intn(12)), event(nextID, depth+1))
			}
		}
	}
	mutate := func(p *pollState, kind int) func() {
		return func() {
			run.firings = append(run.firings, firing{e.Now(), -1 - p.id})
			switch kind {
			case 0:
				p.work = true
				wake(p)
			case 1:
				due := e.Now() + Cycle(rng.Intn(40))
				if due < p.due {
					wake(p) // a due cycle moved earlier
				}
				p.due = due
			default:
				wake(p) // early: the tick finds nothing to do
			}
		}
	}
	tick = func(a any) {
		p := a.(*pollState)
		if !p.work && e.Now() < p.due {
			if !parked {
				run.passes++
			}
			rearm(p, p.period)
			return
		}
		run.firings = append(run.firings, firing{e.Now(), p.id})
		p.work = false
		p.acts++
		if rng.Intn(2) == 0 {
			nextID++
			e.After(Cycle(rng.Intn(int(p.period))), event(nextID, 1))
		}
		if p.acts >= 4 {
			return // stopped for good
		}
		if rng.Intn(3) == 0 {
			p.due = Never
			e.After(Cycle(1+rng.Intn(60)), mutate(p, 0))
		} else {
			p.due = e.Now() + Cycle(rng.Intn(80))
		}
		rearm(p, p.period)
	}
	for i := range ps {
		p := &pollState{id: i, period: Cycle(1 + rng.Intn(9)), due: Cycle(rng.Intn(100))}
		p.poll.Init(e, p.period, tick, p)
		ps[i] = p
		rearm(p, Cycle(1+rng.Intn(5)))
	}
	for i := 0; i < 5+rng.Intn(20); i++ {
		nextID++
		e.Schedule(Cycle(rng.Intn(150)), event(nextID, 0))
	}
	for i := 0; i < rng.Intn(12); i++ {
		p := ps[rng.Intn(n)]
		e.Schedule(Cycle(rng.Intn(150)), mutate(p, rng.Intn(3)))
	}

	// Drain partway; the caller then acts at the deadline.
	e.RunUntil(Cycle(20 + rng.Intn(60)))
	p := ps[rng.Intn(n)]
	e.After(Cycle(rng.Intn(int(p.period))), mutate(p, rng.Intn(3)))

	// A pump: submit until refused, then step. A submit spends a token and
	// schedules work or mutates a poll on the spot.
	submit := func() bool {
		if tokens == 0 {
			return false
		}
		tokens--
		nextID++
		if rng.Intn(2) == 0 {
			e.After(Cycle(rng.Intn(8)), event(nextID, 1))
		} else {
			p := ps[rng.Intn(n)]
			mutate(p, rng.Intn(3))()
		}
		return true
	}
	for target := len(run.firings) + 10 + rng.Intn(30); len(run.firings) < target; {
		for submit() {
		}
		if !e.Step() {
			break
		}
	}

	// A power-fail cut: step while the next real event is at or before the
	// cut, then pass the parked ticks up to it.
	var cut clock
	if seed%2 == 0 {
		limit := e.Now() + Cycle(rng.Intn(50))
		for {
			if at, ok := e.NextAt(); !ok || at > limit {
				e.PassUntil(limit)
				break
			}
			e.Step()
		}
		cut = clock{e.Now(), e.seq}
	}
	e.Run()
	run.now, run.seq, run.fired = e.Now(), e.seq, e.Fired()
	return run, cut
}

// TestWakeReusesTheParkedSlot pins why a wake must not schedule a fresh
// event: an event scheduled at the tick's cycle after the poll parked comes
// after the tick in the re-arming form's order, so the woken tick must fire
// first. A wake that took a new sequence number would fire it second.
func TestWakeReusesTheParkedSlot(t *testing.T) {
	for _, parked := range []bool{false, true} {
		e := NewEngine()
		var got []string
		work := false
		var p Poll
		var tick func(any)
		tick = func(any) {
			if !work {
				if parked {
					p.Park(10, Never)
				} else {
					e.AfterFn(10, tick, nil)
				}
				return
			}
			got = append(got, "tick")
		}
		p.Init(e, 10, tick, nil)
		e.Schedule(5, func() {
			// The poll's next tick is at 10; this event takes a later seq
			// at the same cycle, then the work that wakes the poll arrives.
			e.Schedule(10, func() { got = append(got, "event") })
			work = true
			p.Wake()
		})
		if parked {
			p.Park(10, Never)
		} else {
			e.AfterFn(10, tick, nil)
		}
		e.Run()
		if len(got) != 2 || got[0] != "tick" || got[1] != "event" || e.Now() != 10 {
			t.Fatalf("parked=%v: fired %v, ending at %d; want [tick event] at 10", parked, got, e.Now())
		}
	}
}

// TestParkedPollPendingAndNextAt pins how a parked poll shows to pumps and
// cut drivers: it counts as one pending event, NextAt reports only the tick
// it is due to fire, and PassUntil moves it along its grid without firing.
func TestParkedPollPendingAndNextAt(t *testing.T) {
	e := NewEngine()
	fired := 0
	var p Poll
	p.Init(e, 4, func(any) { fired++ }, nil)
	p.Park(3, 18) // ticks at 3, 7, 11, 15, 19: the first due is 19
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if at, ok := e.NextAt(); !ok || at != 19 {
		t.Fatalf("NextAt = %d,%v, want 19,true", at, ok)
	}
	e.PassUntil(12)
	if e.Now() != 11 || e.seq != 4 || fired != 0 {
		t.Fatalf("after PassUntil(12): now %d seq %d fired %d, want 11 4 0", e.Now(), e.seq, fired)
	}
	p.Wake()
	if at, ok := e.NextAt(); !ok || at != 15 {
		t.Fatalf("NextAt after Wake = %d,%v, want 15,true", at, ok)
	}
	e.Run()
	if fired != 1 || e.Now() != 15 || e.Pending() != 0 || e.Fired() != 1 {
		t.Fatalf("fired %d at %d (pending %d, Fired %d), want 1 at 15 (0, 1)",
			fired, e.Now(), e.Pending(), e.Fired())
	}
}

// TestSameCycleFIFOInterleavesWithHeap pins the ordering rule between the
// same-cycle FIFO fast path and heap events landing on the same cycle:
// scheduling order (seq) decides, regardless of which structure holds the
// event.
func TestSameCycleFIFOInterleavesWithHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	// Three heap events at cycle 10 (seq 1, 2, 3). The second one, while
	// firing, schedules two same-cycle events (FIFO, seq 4 and 5) — the
	// remaining heap event (seq 3) must still fire before them.
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(10, func() {
		// Now() == 10: these go to the FIFO with seq 4 and 5.
		e.Schedule(10, func() { got = append(got, 4) })
		e.Schedule(3, func() { got = append(got, 5) }) // past: clamped to 10
	})
	e.Schedule(10, func() { got = append(got, 3) }) // heap, seq 3
	e.Run()
	want := []int{1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestScheduleInPastFiresBeforeAdvancing verifies that an event scheduled
// behind the clock fires at Now, before any later event.
func TestScheduleInPastFiresBeforeAdvancing(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	e.Schedule(100, func() {
		e.Schedule(40, func() { order = append(order, e.Now()) }) // past
		e.Schedule(120, func() { order = append(order, e.Now()) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 100 || order[1] != 120 {
		t.Fatalf("got firings at %v, want [100 120]", order)
	}
}

// TestRunUntilStopsAtExactCut models the power-fail cut: RunUntil must fire
// everything at or before the cut cycle (including same-cycle FIFO events
// created during the drain) and nothing after, leaving Now at the cut.
func TestRunUntilStopsAtExactCut(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	e.Schedule(50, func() {
		fired = append(fired, e.Now())
		// Same-cycle follow-up right at the cut: still inside the window.
		e.Schedule(50, func() { fired = append(fired, e.Now()) })
		e.Schedule(51, func() { t.Error("event after the cut fired") })
	})
	e.Schedule(49, func() { fired = append(fired, e.Now()) })
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %d after RunUntil(50)", e.Now())
	}
	if len(fired) != 3 || fired[0] != 49 || fired[1] != 50 || fired[2] != 50 {
		t.Fatalf("fired at %v, want [49 50 50]", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the post-cut event still queued", e.Pending())
	}
	// The survivor fires once the deadline moves.
	if at, ok := e.NextAt(); !ok || at != 51 {
		t.Fatalf("NextAt = %d,%v, want 51,true", at, ok)
	}
}

// TestNextAtEmptyQueue pins NextAt's empty-queue contract, including after a
// drain (the FIFO ring must report empty once consumed).
func TestNextAtEmptyQueue(t *testing.T) {
	e := NewEngine()
	if at, ok := e.NextAt(); ok || at != 0 {
		t.Fatalf("NextAt on fresh engine = %d,%v, want 0,false", at, ok)
	}
	e.Schedule(0, func() {}) // same-cycle FIFO entry
	e.Schedule(7, func() {})
	if at, ok := e.NextAt(); !ok || at != 0 {
		t.Fatalf("NextAt = %d,%v, want 0,true (FIFO head)", at, ok)
	}
	e.Run()
	if at, ok := e.NextAt(); ok || at != 0 {
		t.Fatalf("NextAt after drain = %d,%v, want 0,false", at, ok)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestScheduleFnOrdersWithSchedule verifies the two scheduling forms share
// one (at, seq) order and that AfterFn delivers its argument.
func TestScheduleFnOrdersWithSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	e.ScheduleFn(10, push, 1)
	e.Schedule(10, func() { got = append(got, 2) })
	e.AfterFn(10, push, 3)
	e.Schedule(5, func() { got = append(got, 0) })
	e.Run()
	for i, v := range got {
		if i != v {
			t.Fatalf("got %v, want [0 1 2 3]", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %v, want [0 1 2 3]", got)
	}
}

// TestEventSize pins the event record at six words on 64-bit hosts: the heap
// copies it on every push, pop and sift.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("event layout is pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(event{}); n != 48 {
		t.Fatalf("event is %d bytes, want 48", n)
	}
}
