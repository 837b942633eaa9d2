package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkKeyIndex compares x with ref and checks the table's invariant: every
// held key sits at the end of an unbroken run of full slots from its home,
// so a lookup from the home reaches it. It returns how many held keys sit
// below their home, in a run that wrapped past the table's end.
func checkKeyIndex(t *testing.T, x *KeyIndex, ref map[uint64]int32) (wrapped int) {
	t.Helper()
	if x.Len() != len(ref) {
		t.Fatalf("Len = %d, map holds %d", x.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := x.Get(k); !ok || got != v {
			t.Fatalf("Get(%#x) = %d,%v, map holds %d", k, got, ok, v)
		}
	}
	mask := len(x.slots) - 1
	full := 0
	for j, s := range x.slots {
		if !s.full {
			continue
		}
		full++
		if v, ok := ref[s.key]; !ok || v != s.val {
			t.Fatalf("slot %d holds %#x=%d, map has %d,%v", j, s.key, s.val, v, ok)
		}
		h := x.home(s.key)
		for i := h; i != j; i = (i + 1) & mask {
			if !x.slots[i].full {
				t.Fatalf("key %#x at slot %d: slot %d between its home %d and it is empty", s.key, j, i, h)
			}
		}
		if j < h {
			wrapped++
		}
	}
	if full != len(ref) {
		t.Fatalf("%d full slots, map holds %d keys", full, len(ref))
	}
	return wrapped
}

// TestKeyIndexMatchesMap drives a KeyIndex and a Go map with one randomized
// Get/Set/Delete/Clear stream over keys that are multiples of 64, 256 and
// 4,096, the alignments of the lines, blocks and pages the index holds.
// Each run alternates filling the table to capacity and draining it, so it
// meets full tables, and a Set of a new key into a full table must panic.
// After every call the two must agree and every key must be reachable from
// its home. The runs must between them wrap probe runs past the table's
// end and delete from the middle of a run, which shifts the run back.
func TestKeyIndexMatchesMap(t *testing.T) {
	wrapped, shifted, fulls := 0, 0, 0
	for _, capacity := range []int{1, 2, 7, 64, 100} {
		for _, align := range []uint64{64, 256, 4096} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cap=%d/align=%d/seed=%d", capacity, align, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					var x KeyIndex
					x.Init(capacity)
					ref := map[uint64]int32{}
					// Three keys per slot of capacity, from a window of the
					// address space at a random base.
					base := uint64(rng.Int63()) &^ (align - 1)
					keys := make([]uint64, 3*capacity)
					for i := range keys {
						keys[i] = base + uint64(rng.Intn(8*capacity))*align
					}
					filling := true
					for step := 0; step < 3000; step++ {
						key := keys[rng.Intn(len(keys))]
						r := rng.Intn(100)
						switch {
						case r < 2:
							x.Clear()
							clear(ref)
						case r < 35:
							got, ok := x.Get(key)
							want, wantOK := ref[key]
							if got != want || ok != wantOK {
								t.Fatalf("step %d: Get(%#x) = %d,%v, map %d,%v", step, key, got, ok, want, wantOK)
							}
						case filling && r < 85 || !filling && r < 45:
							val := int32(rng.Intn(1 << 20))
							if _, held := ref[key]; !held && len(ref) == capacity {
								if !setPanics(&x, key, val) {
									t.Fatalf("step %d: Set of a new key into a full index did not panic", step)
								}
								continue
							}
							x.Set(key, val)
							ref[key] = val
						default:
							i, _ := x.find(key)
							got, ok := x.Delete(key)
							want, wantOK := ref[key]
							if got != want || ok != wantOK {
								t.Fatalf("step %d: Delete(%#x) = %d,%v, map %d,%v", step, key, got, ok, want, wantOK)
							}
							if ok && x.slots[i].full {
								shifted++ // a later entry of the run moved into the hole
							}
							delete(ref, key)
						}
						wrapped += checkKeyIndex(t, &x, ref)
						if len(ref) == capacity {
							fulls++
							filling = false
						} else if len(ref) == 0 {
							filling = true
						}
					}
				})
			}
		}
	}
	if wrapped == 0 || shifted == 0 || fulls == 0 {
		t.Fatalf("coverage: %d wrapped keys seen, %d deletes shifted a run, %d full tables; want each > 0",
			wrapped, shifted, fulls)
	}
}

// setPanics reports whether x.Set(key, val) panics.
func setPanics(x *KeyIndex, key uint64, val int32) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	x.Set(key, val)
	return false
}

// TestKeyIndexWrappedRunShiftsBack builds a run of three colliding keys
// that wraps past the table's end and deletes its middle key: the last one
// must shift back across the wrap, and every key stay reachable.
func TestKeyIndexWrappedRunShiftsBack(t *testing.T) {
	var x KeyIndex
	x.Init(4) // 8 slots
	last := len(x.slots) - 1
	var run []uint64
	for k := uint64(64); len(run) < 3; k += 64 {
		if x.home(k) == last {
			run = append(run, k)
		}
	}
	ref := map[uint64]int32{}
	for i, k := range run {
		x.Set(k, int32(i))
		ref[k] = int32(i)
	}
	if checkKeyIndex(t, &x, ref) != 2 {
		t.Fatalf("the run did not wrap: slots %+v", x.slots)
	}
	if v, ok := x.Delete(run[1]); !ok || v != 1 {
		t.Fatalf("Delete(middle) = %d,%v, want 1,true", v, ok)
	}
	delete(ref, run[1])
	if checkKeyIndex(t, &x, ref) != 1 || x.slots[0].key != run[2] || x.slots[1].full {
		t.Fatalf("the run's last key did not shift back to slot 0: slots %+v", x.slots)
	}
}

// TestKeyIndexAllocFree pins that a KeyIndex allocates nothing after Init.
func TestKeyIndexAllocFree(t *testing.T) {
	var x KeyIndex
	x.Init(64)
	avg := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 64; i++ {
			x.Set(i*64, int32(i))
		}
		for i := uint64(0); i < 64; i += 2 {
			x.Delete(i * 64)
		}
		x.Clear()
	})
	if avg != 0 {
		t.Fatalf("KeyIndex allocated %.1f times per run, want 0", avg)
	}
}
