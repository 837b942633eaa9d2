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
