package sim

import "testing"

// BenchmarkEngineScheduleRun is the engine microbenchmark the perf
// trajectory tracks: schedule-and-fire cost per event with a mix of
// same-cycle (FIFO fast path) and future (heap) events. The boxed
// container/heap implementation paid two allocations per event here; the
// value heap pays zero.
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

// BenchmarkEngineDeepHeap exercises pure heap traffic (no same-cycle fast
// path): a standing population of future events with one pop per push.
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

// TestRunUntilAllocFree pins the RunUntil fast path to zero allocations once
// capacities are warm, matching the Run guard below.
func TestRunUntilAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
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
}

// TestScheduleAllocFree is the allocation regression guard for the engine
// hot path: once slice capacity is warm, Schedule/After/Run must not
// allocate at all (the boxed heap allocated on every push and pop).
func TestScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the heap and FIFO capacity.
	for i := 0; i < 2048; i++ {
		e.Schedule(e.Now()+Cycle(i%31), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			e.After(Cycle(i%13), fn) // mixes FIFO (0) and heap (>0) paths
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("Schedule/After/Run allocated %.2f times per run, want 0", avg)
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
