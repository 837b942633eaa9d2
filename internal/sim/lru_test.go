package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/ckpt"
)

// refLRU is the reference the LRU must agree with: keys in a map with the
// tick of their last touch, the victim found by scanning every key for the
// minimum stamp.
type refLRU struct {
	vals    map[uint64]uint64
	lastUse map[uint64]uint64
	cap     int
	tick    uint64
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{vals: map[uint64]uint64{}, lastUse: map[uint64]uint64{}, cap: capacity}
}

func (r *refLRU) get(key uint64) (uint64, bool) {
	v, ok := r.vals[key]
	if ok {
		r.tick++
		r.lastUse[key] = r.tick
	}
	return v, ok
}

func (r *refLRU) put(key, val uint64) (victim, victimVal uint64, evicted bool) {
	if _, ok := r.vals[key]; !ok && len(r.vals) >= r.cap {
		first := true
		for k, t := range r.lastUse {
			if first || t < r.lastUse[victim] {
				victim, first = k, false
			}
		}
		victimVal, evicted = r.vals[victim], true
		delete(r.vals, victim)
		delete(r.lastUse, victim)
	}
	r.tick++
	r.vals[key] = val
	r.lastUse[key] = r.tick
	return victim, victimVal, evicted
}

func (r *refLRU) has(key uint64) bool { _, ok := r.vals[key]; return ok }

func (r *refLRU) reset() {
	clear(r.vals)
	clear(r.lastUse)
	r.tick = 0
}

// entries lists the keys most recently used first, as LRU.Entries must.
func (r *refLRU) entries() []LRUEntry[uint64] {
	out := make([]LRUEntry[uint64], 0, len(r.vals))
	for k, v := range r.vals {
		out = append(out, LRUEntry[uint64]{Key: k, Val: v, LastUse: r.lastUse[k]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LastUse > out[j].LastUse })
	return out
}

// TestLRUMatchesMinScan drives the LRU and the minimum-stamp scan with one
// randomized Get/Put/Peek/Contains/Reset/Restore stream: every call must
// return the same result (so the same victims are evicted), and after every
// step the two must agree on Len, the tick and the full recency order with
// every value and stamp.
func TestLRUMatchesMinScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				checkLRUAgainstRef(t, capacity, seed)
			})
		}
	}
}

func checkLRUAgainstRef(t *testing.T, capacity int, seed uint64) {
	rng := NewRNG(seed)
	var l LRU[uint64]
	l.Init(capacity)
	ref := newRefLRU(capacity)
	universe := uint64(3*capacity + 2)
	const steps = 4000
	evictions, restores := 0, 0
	for step := 0; step < steps; step++ {
		key := rng.Uint64n(universe) * 64
		switch op := rng.Intn(1000); {
		case op < 360:
			v, ok := l.Get(key)
			wv, wok := ref.get(key)
			if v != wv || ok != wok {
				t.Fatalf("step %d: Get(%#x) = %d, %v; reference %d, %v", step, key, v, ok, wv, wok)
			}
		case op < 720:
			val := rng.Uint64()
			victim, vv, evicted := l.Put(key, val)
			wvictim, wvv, wevicted := ref.put(key, val)
			if victim != wvictim || vv != wvv || evicted != wevicted {
				t.Fatalf("step %d: Put(%#x) evicted %#x=%d (%v), reference %#x=%d (%v)",
					step, key, victim, vv, evicted, wvictim, wvv, wevicted)
			}
			if evicted {
				evictions++
			}
		case op < 820:
			// A write through Peek changes the value but not the order.
			p := l.Peek(key)
			wv, wok := ref.vals[key]
			if (p != nil) != wok || p != nil && *p != wv {
				t.Fatalf("step %d: Peek(%#x) disagrees with the reference (%d, %v)", step, key, wv, wok)
			}
			if p != nil {
				*p = wv + 1
				ref.vals[key] = wv + 1
			}
		case op < 960:
			if got, want := l.Contains(key), ref.has(key); got != want {
				t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, key, got, want)
			}
		case op < 962:
			l.Reset()
			ref.reset()
		default:
			// Restore a copy from shuffled entries, as a snapshot would.
			es := l.Entries(nil)
			for i := len(es) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				es[i], es[j] = es[j], es[i]
			}
			var r LRU[uint64]
			r.Init(capacity)
			if err := r.Restore(es, l.Tick()); err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			l = r
			restores++
		}
		if l.Len() != len(ref.vals) || l.Tick() != ref.tick {
			t.Fatalf("step %d: len/tick %d/%d, reference %d/%d", step, l.Len(), l.Tick(), len(ref.vals), ref.tick)
		}
		got, want := l.Entries(nil), ref.entries()
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: entries\n got %v\nwant %v", step, got, want)
		}
	}
	if evictions < steps/10 || restores == 0 {
		t.Fatalf("%d evictions and %d restores in %d steps; the stream does not exercise replacement",
			evictions, restores, steps)
	}
}

// TestLRURestoreRejectsCorrupt: entries no sequence of touches can leave are
// a corrupt snapshot, and the LRU is left empty rather than half restored.
func TestLRURestoreRejectsCorrupt(t *testing.T) {
	for name, c := range map[string]struct {
		entries []LRUEntry[bool]
		tick    uint64
	}{
		"over capacity":   {[]LRUEntry[bool]{{Key: 1, LastUse: 1}, {Key: 2, LastUse: 2}, {Key: 3, LastUse: 3}}, 3},
		"duplicate key":   {[]LRUEntry[bool]{{Key: 1, LastUse: 1}, {Key: 1, LastUse: 2}}, 2},
		"stamp past tick": {[]LRUEntry[bool]{{Key: 1, LastUse: 1}, {Key: 2, LastUse: 5}}, 4},
		"equal stamps":    {[]LRUEntry[bool]{{Key: 1, LastUse: 2}, {Key: 2, LastUse: 2}}, 2},
	} {
		var l LRU[bool]
		l.Init(2)
		l.Put(9, true)
		if err := l.Restore(c.entries, c.tick); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want ckpt.ErrCorrupt", name, err)
		}
		if l.Len() != 0 || l.Tick() != 0 || l.Contains(1) || l.Contains(9) {
			t.Errorf("%s: a rejected Restore left %d keys, tick %d", name, l.Len(), l.Tick())
		}
	}
}
