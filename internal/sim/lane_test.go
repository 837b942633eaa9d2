package sim

import (
	"testing"

	"repro/internal/ckpt"
)

// TestLanePendingAndNextAt pins how lane slots show to pumps and cut
// drivers: each counts as one pending event and notes the peak at Push,
// NextAt reports only real events, a step passes the slots before the
// event it fires, and StepUntil with nothing due passes every slot up to
// its limit, leaving the clock at the last of them.
func TestLanePendingAndNextAt(t *testing.T) {
	e := NewEngine()
	var l Lane
	l.Init(e, func(any) { t.Fatal("a lane slot fired") })
	fired := 0
	e.ScheduleFn(9, func(any) { fired++ }, nil) // seq 1
	l.Push(4)                                   // seq 2
	l.Push(9)                                   // seq 3, after the event at 9
	l.Push(12)                                  // seq 4
	if e.Pending() != 4 || e.PeakPending() != 4 || l.Pending() != 3 {
		t.Fatalf("Pending %d, peak %d, lane %d; want 4, 4, 3", e.Pending(), e.PeakPending(), l.Pending())
	}
	if at, ok := e.NextAt(); !ok || at != 9 {
		t.Fatalf("NextAt = %d,%v, want 9,true", at, ok)
	}
	if !e.Step() || fired != 1 || e.Now() != 9 || l.Pending() != 2 {
		t.Fatalf("after a step: fired %d at %d, lane %d; want 1 at 9, 2", fired, e.Now(), l.Pending())
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt reported a lane slot")
	}
	if e.StepUntil(11) || e.Now() != 9 || l.Pending() != 1 {
		t.Fatalf("StepUntil(11): now %d, lane %d; want 9, 1", e.Now(), l.Pending())
	}
	if e.Step() || e.Now() != 12 || l.Pending() != 0 || e.Pending() != 0 {
		t.Fatalf("Step with only slots: now %d, lane %d, pending %d; want false at 12, 0, 0",
			e.Now(), l.Pending(), e.Pending())
	}
	if e.seq != 4 || e.Fired() != 1 {
		t.Fatalf("seq %d, fired %d; want 4, 1", e.seq, e.Fired())
	}
}

// TestLaneBesideParkedPoll passes slots and parked ticks in (cycle, seq)
// order: a tick due on a slot's cycle fires after the slots pushed before
// its slot and before those pushed after it, and a cut passes both kinds.
func TestLaneBesideParkedPoll(t *testing.T) {
	e := NewEngine()
	var l Lane
	l.Init(e, nil)
	var p Poll
	var atFire int
	p.Init(e, 4, func(any) { atFire = l.Pending() }, nil)
	l.Push(8)    // seq 1
	p.Park(8, 8) // seq 2: the first tick, at 8, is due
	l.Push(8)    // seq 3
	if !e.Step() || e.Now() != 8 || atFire != 1 {
		t.Fatalf("the due tick fired at %d with %d slots left, want 8 with 1", e.Now(), atFire)
	}
	if e.seq != 3 {
		t.Fatalf("seq %d, want 3: passing a slot spends no number", e.seq)
	}
	p.Park(4, Never) // seq 4, ticks at 12, 16, ...
	l.Push(13)       // seq 5
	// The cut passes the slot at 8, the tick at 12 (seq 6), the slot at 13
	// and the tick at 16 (seq 7).
	if e.StepUntil(17) || e.Now() != 16 || l.Pending() != 0 {
		t.Fatalf("StepUntil(17): now %d, lane %d; want 16, 0", e.Now(), l.Pending())
	}
	if e.seq != 7 {
		t.Fatalf("seq %d, want 7", e.seq)
	}
}

// TestLanePushOutOfOrderPanics: a slot earlier than the lane's last would
// break the FIFO's (cycle, seq) order, so Push refuses it. A slot in the
// past is clamped to now, as ScheduleFn clamps.
func TestLanePushOutOfOrderPanics(t *testing.T) {
	e := NewEngine()
	var l Lane
	l.Init(e, nil)
	e.RunUntil(10)
	l.Push(3) // clamped to 10
	l.Push(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Push accepted a slot before the lane's last")
		}
	}()
	l.Push(20)
	l.Push(19)
}

// TestLaneWarmAllocFree: a lane keeps its backing array and moves its
// unpassed slots to the front when it fills, so once warm it allocates
// nothing however long it runs.
func TestLaneWarmAllocFree(t *testing.T) {
	e := NewEngine()
	var l Lane
	l.Init(e, nil)
	round := func() {
		for i := 0; i < 8; i++ {
			l.Push(e.Now() + Cycle(3*i))
			if i%3 == 2 {
				e.StepUntil(e.Now() + 4)
			}
		}
		e.Run()
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("a warm lane allocated %.1f times per round", avg)
	}
	if cap(l.slots) > 16 {
		t.Fatalf("lane capacity %d with at most 8 slots unpassed", cap(l.slots))
	}
}

// TestEngineCheckpointRejectsLaneSlot: an unpassed slot stands for a
// pending event, so SaveState refuses it; once passed, the engine saves,
// and LoadState forgets a lane's slots as it forgets parked polls.
func TestEngineCheckpointRejectsLaneSlot(t *testing.T) {
	e := NewEngine()
	var l Lane
	l.Init(e, nil)
	l.Push(5)
	var enc ckpt.Enc
	if err := e.SaveState(&enc); err == nil {
		t.Fatal("SaveState accepted a lane slot")
	}
	e.Run()
	if err := e.SaveState(&enc); err != nil {
		t.Fatalf("SaveState after the slot passed: %v", err)
	}
	l.Push(9)
	if err := e.LoadState(ckpt.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 0 || e.Pending() != 0 || e.Now() != 5 {
		t.Fatalf("after LoadState: lane %d, pending %d, now %d; want 0, 0, 5", l.Pending(), e.Pending(), e.Now())
	}
	l.Push(6)
	if e.Step() || e.Now() != 6 {
		t.Fatalf("a slot pushed after LoadState passed to %d, want 6", e.Now())
	}
}
