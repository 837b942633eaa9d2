package media

import (
	"testing"

	"repro/internal/sim"
)

// TestMediaRoundTripAllocFree is the allocation regression guard for the
// media hot path: once the paged wear/data leaves covering an address are
// warm, a write+read round trip (timing access, wear accounting, functional
// store update) must not allocate. The former map-backed stores allocated on
// insert and the boxed event heap on every completion schedule.
func TestMediaRoundTripAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, Config{Capacity: 1 << 20, Functional: true})
	done := func(any) {}
	payload := []byte{0xa5, 0x5a, 0x42, 0x24}
	addr := uint64(64 << 10)

	warm := func() {
		x.WriteData(addr, payload)
		x.Access(addr, true, done, x)
		x.Access(addr, false, done, x)
		_ = x.ReadData(addr, len(payload))
		eng.Run()
	}
	warm()

	avg := testing.AllocsPerRun(200, func() {
		x.WriteData(addr, payload)
		x.Access(addr, true, done, x)
		x.Access(addr, false, done, x)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("media write+read round trip allocated %.2f times per run, want 0", avg)
	}

	// ReadData allocates only its result buffer.
	avg = testing.AllocsPerRun(200, func() { _ = x.ReadData(addr, len(payload)) })
	if avg > 1 {
		t.Fatalf("ReadData allocated %.2f times per run, want <= 1 (result buffer)", avg)
	}
}

// TestPagedStoresSparseSemantics pins the map-equivalent behavior of the
// paged stores: untouched regions read as zero/absent, resets restore the
// sparse state, and iteration only visits live entries.
func TestPagedStoresSparseSemantics(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, Config{Capacity: 4 << 20, Functional: true})

	if w := x.WearCount(3 << 20); w != 0 {
		t.Fatalf("untouched wear block count = %d, want 0", w)
	}
	x.Access(3<<20, true, nil, nil)
	eng.Run()
	if w := x.WearCount(3 << 20); w != 1 {
		t.Fatalf("wear after one write = %d, want 1", w)
	}
	if tw := x.TotalWear(); tw != 1 {
		t.Fatalf("TotalWear = %d, want 1", tw)
	}
	x.ResetWear(3 << 20)
	if w, tw := x.WearCount(3<<20), x.TotalWear(); w != 0 || tw != 0 {
		t.Fatalf("after reset: WearCount=%d TotalWear=%d, want 0,0", w, tw)
	}

	// Functional store: unwritten reads are zero, cross-block writes land.
	blob := make([]byte, 600) // spans three 256B blocks
	for i := range blob {
		blob[i] = byte(i)
	}
	base := uint64(1<<20) - 100 // straddles a slab boundary region
	x.WriteData(base, blob)
	got := x.ReadData(base, len(blob))
	for i := range blob {
		if got[i] != blob[i] {
			t.Fatalf("byte %d: got %d, want %d", i, got[i], blob[i])
		}
	}
	if z := x.ReadData(2<<20, 64); len(z) != 64 {
		t.Fatalf("zero read length %d", len(z))
	} else {
		for _, b := range z {
			if b != 0 {
				t.Fatal("unwritten region not zero")
			}
		}
	}
}
