package nvdimm

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

func TestLSQMergeInPlace(t *testing.T) {
	q := NewLSQ(8, 256)
	merged, ok := q.Accept(0, 0)
	if merged || !ok {
		t.Fatalf("first accept: merged=%v ok=%v", merged, ok)
	}
	merged, ok = q.Accept(0, 5)
	if !merged || !ok {
		t.Fatalf("re-accept: merged=%v ok=%v", merged, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (merged)", q.Len())
	}
	if q.Merges() != 1 {
		t.Fatalf("Merges = %d", q.Merges())
	}
}

func TestLSQFullBackpressure(t *testing.T) {
	q := NewLSQ(4, 256)
	for i := 0; i < 4; i++ {
		if _, ok := q.Accept(uint64(i)*64, 0); !ok {
			t.Fatalf("accept %d rejected", i)
		}
	}
	if _, ok := q.Accept(4*64, 0); ok {
		t.Fatal("accept into full LSQ succeeded")
	}
	// Merging into an existing line still works when full.
	if merged, ok := q.Accept(0, 1); !merged || !ok {
		t.Fatal("merge rejected on full LSQ")
	}
}

func TestLSQPopGroupCombines(t *testing.T) {
	q := NewLSQ(64, 256)
	// Four lines of block 0, one line of block 256.
	for i := 0; i < 4; i++ {
		q.Accept(uint64(i)*64, sim.Cycle(i))
	}
	q.Accept(256, 10)
	g, ok := q.PopGroup()
	if !ok {
		t.Fatal("PopGroup failed")
	}
	if g.Block != 0 || g.Mask != 0b1111 {
		t.Fatalf("group = %+v, want block 0 mask 1111", g)
	}
	if !g.Complete(256) || g.Lines() != 4 {
		t.Fatalf("Complete=%v Lines=%d", g.Complete(256), g.Lines())
	}
	g, ok = q.PopGroup()
	if !ok || g.Block != 256 || g.Mask != 0b0001 {
		t.Fatalf("second group = %+v ok=%v", g, ok)
	}
	if g.Complete(256) {
		t.Fatal("single-line group reported complete")
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestLSQPopGroupOldestFirst(t *testing.T) {
	q := NewLSQ(64, 256)
	q.Accept(512, 0) // block 512 enqueued first
	q.Accept(0, 1)
	g, _ := q.PopGroup()
	if g.Block != 512 {
		t.Fatalf("popped block %d, want oldest (512)", g.Block)
	}
}

func TestLSQOldestAge(t *testing.T) {
	q := NewLSQ(8, 256)
	if q.OldestAge(100) != 0 {
		t.Fatal("empty queue age != 0")
	}
	q.Accept(0, 10)
	q.Accept(64, 50)
	if got := q.OldestAge(100); got != 90 {
		t.Fatalf("OldestAge = %d, want 90", got)
	}
	q.PopGroup()
	if got := q.OldestAge(100); got != 0 {
		t.Fatalf("OldestAge after drain = %d, want 0", got)
	}
}

func TestLSQContains(t *testing.T) {
	q := NewLSQ(8, 256)
	q.Accept(64, 0)
	if !q.Contains(64) || q.Contains(128) {
		t.Fatal("Contains wrong")
	}
	if !q.ContainsBlock(0) {
		t.Fatal("ContainsBlock(0) should see line 64")
	}
	if q.ContainsBlock(256) {
		t.Fatal("ContainsBlock(256) spurious")
	}
}

// Property: accepted lines are returned exactly once across PopGroup calls
// (no loss, no duplication), regardless of interleaving.
func TestLSQDrainConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		q := NewLSQ(32, 256)
		pending := make(map[uint64]bool)
		popped := make(map[uint64]bool)
		for step := 0; step < 500; step++ {
			if rng.Intn(3) > 0 {
				line := rng.Uint64n(64) * 64
				if _, ok := q.Accept(line, sim.Cycle(step)); ok {
					pending[line] = true
				}
			} else {
				g, ok := q.PopGroup()
				if !ok {
					continue
				}
				for i := 0; i < 4; i++ {
					if g.Mask&(1<<i) != 0 {
						line := g.Block + uint64(i)*64
						if !pending[line] {
							return false // popped something never accepted
						}
						if popped[line] {
							return false
						}
						delete(pending, line)
					}
				}
			}
		}
		// Drain everything left.
		for {
			g, ok := q.PopGroup()
			if !ok {
				break
			}
			for i := 0; i < 4; i++ {
				if g.Mask&(1<<i) != 0 {
					delete(pending, g.Block+uint64(i)*64)
				}
			}
		}
		return len(pending) == 0 && q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLSQCompaction(t *testing.T) {
	q := NewLSQ(8, 256)
	// Cycle many accept/drain rounds; backing array must not grow without
	// bound and behavior must stay correct.
	for round := 0; round < 1000; round++ {
		q.Accept(uint64(round%8)*64, sim.Cycle(round))
		if round%4 == 3 {
			q.PopGroup()
		}
	}
	if len(q.order) > 4*q.maxSlots+16 {
		t.Fatalf("order slice grew to %d entries", len(q.order))
	}
}

// TestLSQLoadStateRoundTripAndDuplicate restores a saved LSQ, which must
// answer Contains, merge and drain as the original does, and rejects a
// snapshot that lists one line twice as ckpt.ErrCorrupt.
func TestLSQLoadStateRoundTripAndDuplicate(t *testing.T) {
	q := NewLSQ(8, 256)
	for i, line := range []uint64{512, 0, 64, 576} {
		q.Accept(line, sim.Cycle(i))
	}
	var enc ckpt.Enc
	q.SaveState(&enc)
	r := NewLSQ(8, 256)
	r.Accept(4096, 9) // replaced by the restore
	if err := r.LoadState(ckpt.NewDec(enc.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if r.Len() != 4 || !r.Contains(64) || r.Contains(4096) {
		t.Fatalf("restored LSQ holds %d lines, Contains(64)=%v Contains(4096)=%v; want 4, true, false",
			r.Len(), r.Contains(64), r.Contains(4096))
	}
	if merged, ok := r.Accept(0, 7); !merged || !ok {
		t.Fatalf("Accept of a restored line: merged=%v ok=%v, want a merge", merged, ok)
	}
	for _, want := range []Group{{Block: 512, Mask: 0b0011, Enq: 0}, {Block: 0, Mask: 0b0011, Enq: 7}} {
		if g, ok := r.PopGroup(); !ok || g != want {
			t.Fatalf("PopGroup = %+v,%v, want %+v", g, ok, want)
		}
	}

	var dup ckpt.Enc
	dup.U32(2)
	for i := 0; i < 2; i++ {
		dup.U64(128)
		dup.U64(uint64(i))
	}
	dup.U64(0)
	dup.U64(0)
	if err := NewLSQ(8, 256).LoadState(ckpt.NewDec(dup.Bytes())); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("LoadState of a duplicated line: %v, want ckpt.ErrCorrupt", err)
	}
}
