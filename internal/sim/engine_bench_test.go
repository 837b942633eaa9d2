package sim

import (
	"runtime"
	"testing"
)

// BenchmarkEngineScheduleRun is the engine microbenchmark the perf
// trajectory tracks: schedule-and-fire cost per event with a mix of
// same-cycle and near-future events, 64 at a time, which land out of order
// in a few buckets. The boxed container/heap implementation paid two
// allocations per event here; the calendar pays zero.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Cycle(i%17), fn)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineDeepHeap keeps a standing population of 4,096 future
// events within the horizon, one pop per push. The events live in the
// ring; the name stays so benchjson -diff keeps comparing it across
// snapshots.
func BenchmarkEngineDeepHeap(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(Cycle(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Cycle(1+i%511), fn)
		e.Step()
	}
}

// BenchmarkEngineFarEvents is BenchmarkEngineDeepHeap beyond the horizon:
// every event is scheduled at least one horizon ahead, so each push and
// pop goes through the overflow heap, and the ring stays empty.
func BenchmarkEngineFarEvents(b *testing.B) {
	const horizon = nBuckets << bucketShift
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(Cycle(horizon+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+horizon+Cycle(i%511), fn)
		e.Step()
	}
}

// BenchmarkEngineRunUntil tracks the deadline-bounded drain path: RunUntil
// used to re-derive the next event time through the exported NextAt peek on
// every iteration; step makes one ordering decision per event, keeping this
// within noise of BenchmarkEngineScheduleRun.
func BenchmarkEngineRunUntil(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Cycle(i%17), fn)
		if i%64 == 63 {
			e.RunUntil(e.Now() + 17)
		}
	}
	e.Run()
}

// BenchmarkParkedPass is store-write's engine shape: the DIMM's LSQ drain,
// a one-period poll of 16 cycles, and the iMC's refused-line retry, a
// two-phase poll of (13, 40), stay parked while one real event fires every
// 60 cycles. Each op is one Step: the event and the 6.0 ticks (3.75 of the
// drain, 2.26 of the retry) passed before it, store-write's ratio of
// passed ticks to events. allocs/op must stay 0.
func BenchmarkParkedPass(b *testing.B) {
	e := NewEngine()
	var drain, retry Poll
	noop := func(any) {}
	drain.Init(e, 16, noop, nil)
	retry.InitTwoPhase(e, 13, 40, noop, nil)
	drain.Park(16, Never)
	retry.Park(40, Never)
	e.AfterFn(60, benchEvent, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(e.seq-uint64(b.N))/float64(b.N), "ticks/op")
}

// benchEvent re-arms itself every 60 cycles.
func benchEvent(a any) {
	e := a.(*Engine)
	e.AfterFn(60, benchEvent, e)
}

// TestRunUntilAllocFree pins the RunUntil fast path to zero allocations once
// capacities are warm, matching the Run guard below.
func TestRunUntilAllocFree(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 2048; i++ {
		e.Schedule(e.Now()+Cycle(i%31), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			e.After(Cycle(i%13), fn)
		}
		e.RunUntil(e.Now() + 13)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("Schedule/RunUntil allocated %.2f times per run, want 0", avg)
	}
	if want := 2048 + 201*256; fired != want {
		t.Fatalf("fired %d closures, want %d", fired, want)
	}
}

// TestScheduleAllocFree is the allocation regression guard for the engine
// hot path: once slice capacity is warm, Schedule/After/Run must not
// allocate at all (the boxed heap allocated on every push and pop). The
// closure captures a variable, as a model's closures do; it rides in the
// event's arg without being boxed again.
func TestScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	// Warm the node slab.
	for i := 0; i < 2048; i++ {
		e.Schedule(e.Now()+Cycle(i%31), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			e.After(Cycle(i%13), fn) // tail appends and walks within a bucket
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("Schedule/After/Run allocated %.2f times per run, want 0", avg)
	}
	if want := 2048 + 201*256; fired != want {
		t.Fatalf("fired %d closures, want %d", fired, want)
	}
}

// TestScheduleFnAllocFree guards the recurring-event variant: AfterFn with a
// package-level function and a pointer argument must not allocate.
func TestScheduleFnAllocFree(t *testing.T) {
	e := NewEngine()
	type comp struct{ fired int }
	c := &comp{}
	tick := func(a any) { a.(*comp).fired++ }
	for i := 0; i < 1024; i++ {
		e.AfterFn(Cycle(i%29), tick, c)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			e.AfterFn(Cycle(i%13), tick, c)
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("AfterFn/Run allocated %.2f times per run, want 0", avg)
	}
}

// engineSink keeps the engines TestEngineFootprint builds on the heap, as a
// model's engine is.
var engineSink *Engine

// TestEngineFootprint bounds the bytes a fresh engine allocates through its
// first Schedule and Run. serve-mix builds about one engine per job and
// figures 160 per batch, so a regrown bucket array shows in their alloc_mb.
// The heap-only engine allocated 176 bytes here and the calendar's 2 KiB of
// anchors and bitmap bring it to 2,368; the bound is the former plus 4 KiB,
// which 4,096 one-cycle buckets (16 KiB of anchors) exceed.
func TestEngineFootprint(t *testing.T) {
	const runs, bound = 1000, 176 + 4096
	fn := func() {}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		e := NewEngine()
		e.Schedule(5, fn)
		e.Run()
		engineSink = e
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > bound {
		t.Fatalf("a fresh engine allocated %d bytes through its first Schedule and Run, want at most %d", got, bound)
	}
}
