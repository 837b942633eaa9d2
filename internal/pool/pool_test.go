package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7} {
		prev := SetWorkers(w)
		hits := make([]atomic.Int32, 100)
		ForEach(len(hits), func(i int) { hits[i].Add(1) })
		SetWorkers(prev)
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, n)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(0, func(int) { t.Fatal("called for n=0") })
	ran := false
	ForEach(1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("n=1 not run")
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	ForEach(16, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned despite panic")
}

// TestNestedForEachStaysInBudget: a sweep of sweeps never holds more than
// GOMAXPROCS-1 leased workers (so at most GOMAXPROCS goroutines run
// iterations at once), still visits every index exactly once, and returns
// every token.
func TestNestedForEachStaysInBudget(t *testing.T) {
	const procs, outer, inner = 4, 6, 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer SetWorkers(SetWorkers(procs))

	var hits [outer * inner]atomic.Int32
	var active, maxActive, maxLeased atomic.Int64
	raise := func(m *atomic.Int64, v int64) {
		for {
			cur := m.Load()
			if v <= cur || m.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	ForEach(outer, func(i int) {
		ForEach(inner, func(j int) {
			raise(&maxActive, active.Add(1))
			raise(&maxLeased, leased.Load())
			hits[i*inner+j].Add(1)
			runtime.Gosched()
			active.Add(-1)
		})
	})
	for k := range hits {
		if n := hits[k].Load(); n != 1 {
			t.Fatalf("index (%d, %d) visited %d times", k/inner, k%inner, n)
		}
	}
	if m := maxLeased.Load(); m > procs-1 {
		t.Fatalf("held %d leased workers, budget is %d", m, procs-1)
	}
	if m := maxActive.Load(); m > procs {
		t.Fatalf("%d iterations ran at once, cap is %d", m, procs)
	}
	if n := leased.Load(); n != 0 {
		t.Fatalf("%d tokens still leased after ForEach returned", n)
	}
}
