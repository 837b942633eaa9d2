// Package pool provides the bounded worker pool behind the parallel
// experiment harness. Every sweep point in internal/exp and internal/lens
// builds a fresh simulated system from fixed seeds, so iterations are
// independent and results are written to their own slot — parallel runs
// produce byte-identical output to sequential ones, just sooner.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured default worker count; <= 0 means GOMAXPROCS.
var workers atomic.Int64

// Workers returns the worker count ForEach will use.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the worker count used by ForEach. n <= 0 restores the
// default (GOMAXPROCS). It returns the previous setting so tests and the
// CLI can scope the change.
func SetWorkers(n int) int {
	prev := int(workers.Load())
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
	return prev
}

// leased counts extra-worker tokens currently held by ForEach calls. The
// budget caps process-wide fan-out at GOMAXPROCS: every call's goroutine
// participates for free and leases only its extra workers, so nesting — a
// parallel sweep whose points run parallel sweeps of their own — degrades
// gracefully to inline execution instead of oversubscribing the machine.
var leased atomic.Int64

// tryLease grabs up to n extra-worker tokens from the global budget and
// returns how many it got, possibly 0. It never blocks — callers must run
// inline with whatever they get (results may not depend on the answer).
// Pair every successful lease with release.
func tryLease(n int) int {
	if n <= 0 {
		return 0
	}
	budget := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		cur := leased.Load()
		avail := budget - cur
		if avail <= 0 {
			return 0
		}
		take := int64(n)
		if take > avail {
			take = avail
		}
		if leased.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
}

// release returns tokens obtained from tryLease.
func release(n int) {
	if n > 0 {
		leased.Add(int64(-n))
	}
}

// ForEach runs fn(i) for every i in [0, n) and waits for all to finish. The
// calling goroutine always participates; up to Workers()-1 extra goroutines
// are leased from the shared budget, so nested ForEach calls share one
// GOMAXPROCS-wide cap. Iterations must not
// share mutable state; callers keep determinism by writing results only to
// slot i. With a single worker — configured or budget-exhausted — it
// degenerates to a plain loop on the calling goroutine.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	extra := 0
	if w > 1 {
		extra = tryLease(w - 1)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	defer release(extra)

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		panMu sync.Mutex
		pan   any
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panMu.Lock()
				if pan == nil {
					pan = r
				}
				panMu.Unlock()
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(extra)
	for g := 0; g < extra; g++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if pan != nil {
		// Surface the first panic on the calling goroutine so test
		// harnesses and defers see it (the original stack is lost).
		panic(pan)
	}
}
