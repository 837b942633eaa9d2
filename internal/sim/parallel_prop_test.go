package sim

import (
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/pool"
)

// forceParallelism raises GOMAXPROCS for the duration of the test so the
// pool budget (GOMAXPROCS-1 extra workers) hands out tokens even on a
// single-CPU host — otherwise every parallel round would silently degrade
// to the inline path and the concurrent buffer/merge machinery would never
// execute. The scheduler time-slices the goroutines on however many cores
// exist; correctness and -race coverage do not need real cores.
func forceParallelism(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// The sharded-engine property tests drive one deterministic event program —
// behavior is a pure function of each event's identity, never of execution
// order — through the engine at different parallelism levels and demand
// every observable be identical: per-shard firing sequences (cycle and id),
// the home firing sequence, and the final (now, seq, fired, peak) state.
// Run under -race they also prove the parallel rounds are data-race free.

// propMix is a splitmix64-style hash: the per-event behavior source.
func propMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b979
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// parTrace is everything observable about one program execution.
type parTrace struct {
	logs  [][]firing // index 0 = home shard
	now   Cycle
	seq   uint64
	fired uint64
	peak  int
}

// runThunk runs a func() handed over as the arg of a (func(any), any)
// schedule, so closure-built programs can drive the Fn-only home forms.
func runThunk(a any) { a.(func())() }

// runShardProgram executes the deterministic program derived from seed on a
// fresh engine with `shards` shards at parallelism par. The drain mode
// alternates RunUntil cuts, counted RunWhile pumps, and a final Run — the
// same schedule of calls at every parallelism level, so it also pins the
// round-granularity contract of the pump loops.
func runShardProgram(t *testing.T, seed uint64, shards, par int) parTrace {
	t.Helper()
	e := NewEngine()
	h := make([]*Engine, shards+1)
	h[0] = e
	for s := 1; s <= shards; s++ {
		h[s] = e.Shard(s)
	}
	e.SetParallel(par)

	logs := make([][]firing, shards+1)

	// fire executes event (shard s, id): logs it, then schedules children
	// chosen purely from propMix(id) — same-shard future and same-cycle
	// events, home funnels, and (from home events) cross-shard dispatch.
	var fire func(s int, id uint64, depth int)
	fire = func(s int, id uint64, depth int) {
		logs[s] = append(logs[s], firing{h[s].Now(), int(id)})
		if depth >= 3 {
			return
		}
		r := propMix(seed ^ id)
		kids := int(r & 3) // 0..3 children
		for k := 0; k < kids; k++ {
			kid := id*8 + uint64(k) + 1
			kr := propMix(seed ^ kid)
			delay := Cycle(kr >> 32 & 7)
			child := func(cs int) func() {
				return func() { fire(cs, kid, depth+1) }
			}
			switch kr & 7 {
			case 0: // same-shard, same cycle
				h[s].Schedule(h[s].Now(), child(s))
			case 1, 2: // same-shard, future
				h[s].After(delay+1, child(s))
			case 3: // defer to home at this cycle
				h[s].DeferHome(child(0))
			case 4: // home, future
				h[s].AfterHomeFn(delay+1, runThunk, child(0))
			case 5: // home, absolute
				h[s].ScheduleHomeFn(h[s].Now()+delay, runThunk, child(0))
			default:
				if s == 0 {
					// Home context may dispatch to any shard directly.
					ts := 1 + int(kr>>8)%shards
					h[ts].After(delay, child(ts))
				} else {
					h[s].AfterFn(delay+2, func(a any) { fire(s, a.(uint64), depth+1) }, kid)
				}
			}
		}
	}

	// Seed population: a spread of home and shard events over early cycles.
	n := 40 + int(propMix(seed)%40)
	for i := 0; i < n; i++ {
		id := uint64(1_000_000 + i)
		r := propMix(seed ^ id)
		s := int(r % uint64(shards+1))
		at := Cycle(r >> 16 & 63)
		s2, id2 := s, id
		h[s].Schedule(at, func() { fire(s2, id2, 0) })
	}

	// Mixed drain schedule: exact cuts, counted pumps, full drain.
	e.RunUntil(10)
	for i := 0; i < 5; i++ {
		target := e.Fired() + 7
		e.RunWhile(func() bool { return e.Fired() < target })
	}
	e.RunUntil(40)
	e.Run()

	return parTrace{logs: logs, now: e.now, seq: e.seq, fired: e.fired, peak: e.peak}
}

func (a *parTrace) equal(b *parTrace) (string, bool) {
	if a.now != b.now || a.seq != b.seq || a.fired != b.fired || a.peak != b.peak {
		return "final engine state differs", false
	}
	if len(a.logs) != len(b.logs) {
		return "shard count differs", false
	}
	for s := range a.logs {
		if len(a.logs[s]) != len(b.logs[s]) {
			return "per-shard firing count differs", false
		}
		for i := range a.logs[s] {
			if a.logs[s][i] != b.logs[s][i] {
				return "per-shard firing order differs", false
			}
		}
	}
	return "", true
}

// TestShardedEngineParallelMatchesSerial is the parallel-engine oracle: the
// same program at par 1 (inline rounds), par 4, and par GOMAXPROCS must
// produce identical traces. par 1 itself is pinned against the legacy
// serial contract by TestEnginePropertyVsOracle running on unsharded
// engines plus the round-structure argument (rounds pop in (at, seq) order
// and execute in (at, seq) order inline).
func TestShardedEngineParallelMatchesSerial(t *testing.T) {
	forceParallelism(t, 8)
	for trial := 0; trial < 30; trial++ {
		seed := uint64(trial)*0x9e37 + 11
		shards := 2 + trial%4
		ref := runShardProgram(t, seed, shards, 1)
		for _, par := range []int{2, 4, 8} {
			got := runShardProgram(t, seed, shards, par)
			if why, ok := got.equal(&ref); !ok {
				t.Fatalf("trial %d par %d: %s", trial, par, why)
			}
		}
	}
}

// TestShardedEngineBudgetExhaustion runs the same program while the pool
// budget is fully leased away: every round must degrade to inline execution
// and still match.
func TestShardedEngineBudgetExhaustion(t *testing.T) {
	forceParallelism(t, 4)
	ref := runShardProgram(t, 77, 3, 1)
	got := pool.TryLease(1 << 20) // drain the whole budget
	defer pool.Release(got)
	par := runShardProgram(t, 77, 3, 4)
	if why, ok := par.equal(&ref); !ok {
		t.Fatalf("budget-exhausted run diverged: %s", why)
	}
}

// TestRootSchedulingInsideRoundPanics pins the funneling guard: a shard
// event that schedules through the root engine is a determinism bug and
// must panic — in inline rounds too, so serial tests catch it before any
// parallel run does.
func TestRootSchedulingInsideRoundPanics(t *testing.T) {
	e := NewEngine()
	s1 := e.Shard(1)
	s1.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("root-engine Schedule inside a shard round did not panic")
			}
		}()
		e.Schedule(10, func() {})
	})
	e.Run()
}

// TestShardedCheckpointCutRestoresIdentically cuts a recurring-event program
// mid-flight, round-trips it through SaveState/LoadState, and requires the
// continuation — on a fresh engine, at a different parallelism — to replay
// exactly what the uninterrupted run produced. This is the engine-level core
// of the "snapshots from a parallel run restore byte-identically on either
// engine" guarantee.
func TestShardedCheckpointCutRestoresIdentically(t *testing.T) {
	forceParallelism(t, 4)
	const shards = 3
	build := func(logs *[][]firing) (*Engine, []*Engine) {
		e := NewEngine()
		h := make([]*Engine, shards+1)
		h[0] = e
		for s := 1; s <= shards; s++ {
			h[s] = e.Shard(s)
		}
		for s := 0; s <= shards; s++ {
			s := s
			id := uint64(s + 1)
			h[s].RegisterRecurring(id, func() {
				(*logs)[s] = append((*logs)[s], firing{h[s].Now(), s})
				if h[s].Now() < 400 {
					h[s].AfterRecurring(Cycle(3+2*s), id)
				}
			})
		}
		return e, h
	}
	seedEvents := func(h []*Engine) {
		for s := 0; s <= shards; s++ {
			h[s].ScheduleRecurring(Cycle(1+s), uint64(s+1))
		}
	}

	// Reference: uninterrupted, parallel.
	refLogs := make([][]firing, shards+1)
	eRef, hRef := build(&refLogs)
	eRef.SetParallel(4)
	seedEvents(hRef)
	eRef.Run()

	for _, resumePar := range []int{1, 4} {
		gotLogs := make([][]firing, shards+1)
		e1, h1 := build(&gotLogs)
		e1.SetParallel(4)
		seedEvents(h1)
		e1.RunUntil(137)

		var enc ckpt.Enc
		if err := e1.SaveState(&enc); err != nil {
			t.Fatalf("SaveState: %v", err)
		}

		// Restore into a fresh engine (sharing the same logs) and finish.
		e2, _ := build(&gotLogs)
		e2.SetParallel(resumePar)
		if err := e2.LoadState(ckpt.NewDec(enc.Bytes())); err != nil {
			t.Fatalf("LoadState: %v", err)
		}
		e2.Run()

		if e2.Now() != eRef.Now() || e2.Fired() != eRef.Fired() {
			t.Fatalf("resumePar %d: restored run ended at (now %d, fired %d), reference (now %d, fired %d)",
				resumePar, e2.Now(), e2.Fired(), eRef.Now(), eRef.Fired())
		}
		for s := range refLogs {
			if len(gotLogs[s]) != len(refLogs[s]) {
				t.Fatalf("resumePar %d: shard %d fired %d events, reference %d",
					resumePar, s, len(gotLogs[s]), len(refLogs[s]))
			}
			for i := range refLogs[s] {
				if gotLogs[s][i] != refLogs[s][i] {
					t.Fatalf("resumePar %d: shard %d firing %d: got %+v, want %+v",
						resumePar, s, i, gotLogs[s][i], refLogs[s][i])
				}
			}
		}
	}
}
