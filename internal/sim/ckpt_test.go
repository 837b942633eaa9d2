package sim

import (
	"errors"
	"testing"

	"repro/internal/ckpt"
)

// TestEngineCheckpointRoundTrip runs a workload dry, checkpoints the idle
// engine, and requires a fresh engine restored from it to carry the same
// clock and counters and to continue exactly like the original.
func TestEngineCheckpointRoundTrip(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 9; i++ {
		eng.After(Cycle(3*i+1), func() {})
		eng.Schedule(Cycle(5*i), func() {})
	}
	eng.Run()

	var enc ckpt.Enc
	if err := eng.SaveState(&enc); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	eng2 := NewEngine()
	if err := eng2.LoadState(ckpt.NewDec(enc.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if eng2.Now() != eng.Now() || eng2.Fired() != eng.Fired() ||
		eng2.PeakPending() != eng.PeakPending() || eng2.Pending() != 0 {
		t.Fatalf("restored engine (now=%d fired=%d peak=%d pending=%d), want (%d %d %d 0)",
			eng2.Now(), eng2.Fired(), eng2.PeakPending(), eng2.Pending(),
			eng.Now(), eng.Fired(), eng.PeakPending())
	}

	// Both engines continue identically: same firing cycles, same seq order,
	// same final counters.
	continueRun := func(e *Engine) []Cycle {
		var log []Cycle
		for i := 0; i < 5; i++ {
			e.After(Cycle(7-i), func() { log = append(log, e.Now()) })
		}
		e.Run()
		return log
	}
	a, b := continueRun(eng), continueRun(eng2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored run fired at %v, original at %v", b, a)
		}
	}
	if eng2.Now() != eng.Now() || eng2.Fired() != eng.Fired() {
		t.Fatalf("restored run ended at (now=%d, fired=%d), original at (now=%d, fired=%d)",
			eng2.Now(), eng2.Fired(), eng.Now(), eng.Fired())
	}
}

// TestEngineCheckpointRejectsClosures: a pending event has no serializable
// identity and must fail the save.
func TestEngineCheckpointRejectsClosures(t *testing.T) {
	eng := NewEngine()
	eng.After(10, func() {})
	var enc ckpt.Enc
	if err := eng.SaveState(&enc); err == nil {
		t.Fatal("SaveState accepted a pending closure event")
	}
}

// TestEngineCheckpointRejectsParkedPoll: a parked poll stands for a pending
// re-arming callback and fails the save like one.
func TestEngineCheckpointRejectsParkedPoll(t *testing.T) {
	eng := NewEngine()
	var p Poll
	p.Init(eng, 4, func(any) {}, nil)
	p.Park(1, Never)
	var enc ckpt.Enc
	if err := eng.SaveState(&enc); err == nil {
		t.Fatal("SaveState accepted a parked poll")
	}
}

// TestEngineLoadRejectsPendingEvents: SaveState always writes a pending
// count of 0, so a snapshot claiming pending events is corrupt, not a panic.
func TestEngineLoadRejectsPendingEvents(t *testing.T) {
	var enc ckpt.Enc
	enc.U64(5) // now
	enc.U64(1) // seq
	enc.U64(0) // fired
	enc.U64(1) // peak
	enc.U32(1) // one pending event, with a full record behind it
	enc.U64(5)
	enc.U64(1)
	enc.U64(9)
	enc.U32(0)
	err := NewEngine().LoadState(ckpt.NewDec(enc.Bytes()))
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("LoadState = %v, want ErrCorrupt", err)
	}
}

// TestRNGCheckpointRoundTrip: a restored stream continues identically.
func TestRNGCheckpointRoundTrip(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	var enc ckpt.Enc
	r.SaveState(&enc)

	want := make([]uint64, 50)
	for i := range want {
		want[i] = r.Uint64()
	}

	r2 := NewRNG(7)
	r2.LoadState(ckpt.NewDec(enc.Bytes()))
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("draw %d: restored %d, straight %d", i, got, want[i])
		}
	}
}
