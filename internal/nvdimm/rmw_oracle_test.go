package nvdimm

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// refRMW is the reference RMW buffer the LRU list must agree with: lines in a
// map, the victim found by scanning every line for the minimum lastUse.
type refRMW struct {
	lines        map[uint64]*refLine
	entries      int
	tick         uint64
	hits, misses uint64
}

type refLine struct {
	dirty   bool
	lastUse uint64
}

func newRefRMW(entries int) *refRMW {
	return &refRMW{lines: map[uint64]*refLine{}, entries: entries}
}

func (b *refRMW) lookup(block uint64) bool {
	if l, ok := b.lines[block]; ok {
		b.tick++
		l.lastUse = b.tick
		b.hits++
		return true
	}
	b.misses++
	return false
}

func (b *refRMW) peek(block uint64) bool { _, ok := b.lines[block]; return ok }

func (b *refRMW) insert(block uint64) (Evicted, bool) {
	b.tick++
	if l, ok := b.lines[block]; ok {
		l.lastUse = b.tick
		return Evicted{}, false
	}
	var ev Evicted
	evicted := false
	if len(b.lines) >= b.entries {
		victim, vl := uint64(0), (*refLine)(nil)
		for blk, l := range b.lines {
			if vl == nil || l.lastUse < vl.lastUse {
				victim, vl = blk, l
			}
		}
		ev, evicted = Evicted{Block: victim, Dirty: vl.dirty}, true
		delete(b.lines, victim)
	}
	b.lines[block] = &refLine{lastUse: b.tick}
	return ev, evicted
}

func (b *refRMW) markDirty(block uint64) bool {
	l, ok := b.lines[block]
	if ok {
		l.dirty = true
	}
	return ok
}

// save is the snapshot layout RMWBuffer.SaveState must keep: resident lines
// sorted by block as (block, dirty, lastUse), then tick, hits, misses.
func (b *refRMW) save() []byte {
	var enc ckpt.Enc
	blocks := make([]uint64, 0, len(b.lines))
	for blk := range b.lines {
		blocks = append(blocks, blk)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	enc.U32(uint32(len(blocks)))
	for _, blk := range blocks {
		enc.U64(blk)
		enc.Bool(b.lines[blk].dirty)
		enc.U64(b.lines[blk].lastUse)
	}
	enc.U64(b.tick)
	enc.U64(b.hits)
	enc.U64(b.misses)
	return enc.Bytes()
}

// TestRMWLRUMatchesMinScan drives the LRU-list buffer and the min-lastUse
// scan reference with one randomized Lookup/Insert/Peek/MarkDirty stream,
// restoring the buffer from a snapshot mid-stream: every call must return
// the same result (so the same victims are evicted), and every snapshot must
// be byte-identical to the reference layout.
func TestRMWLRUMatchesMinScan(t *testing.T) {
	for _, entries := range []int{1, 2, 7, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("entries=%d/seed=%d", entries, seed), func(t *testing.T) {
				checkRMWAgainstRef(t, entries, seed)
			})
		}
	}
}

func checkRMWAgainstRef(t *testing.T, entries int, seed uint64) {
	rng := sim.NewRNG(seed)
	b, ref := NewRMWBuffer(entries), newRefRMW(entries)
	universe := uint64(3*entries + 2)
	const steps = 4000
	evictions := 0
	for step := 0; step < steps; step++ {
		if step == steps/2 || step == steps/3 {
			snap := func(b *RMWBuffer) []byte {
				var enc ckpt.Enc
				b.SaveState(&enc)
				return enc.Bytes()
			}(b)
			if want := ref.save(); !bytes.Equal(snap, want) {
				t.Fatalf("step %d: snapshot differs from the reference layout", step)
			}
			restored := NewRMWBuffer(entries)
			if err := restored.LoadState(ckpt.NewDec(snap)); err != nil {
				t.Fatalf("step %d: LoadState: %v", step, err)
			}
			b = restored
		}
		blk := rng.Uint64n(universe) * 256
		switch op := rng.Intn(8); {
		case op < 3:
			if got, want := b.Lookup(blk), ref.lookup(blk); got != want {
				t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, blk, got, want)
			}
		case op < 6:
			ev, evicted := b.Insert(blk)
			wev, wevicted := ref.insert(blk)
			if ev != wev || evicted != wevicted {
				t.Fatalf("step %d: Insert(%#x) evicted %+v (%v), reference %+v (%v)",
					step, blk, ev, evicted, wev, wevicted)
			}
			if evicted {
				evictions++
			}
		case op < 7:
			if got, want := b.Peek(blk), ref.peek(blk); got != want {
				t.Fatalf("step %d: Peek(%#x) = %v, reference %v", step, blk, got, want)
			}
		default:
			if got, want := b.MarkDirty(blk), ref.markDirty(blk); got != want {
				t.Fatalf("step %d: MarkDirty(%#x) = %v, reference %v", step, blk, got, want)
			}
		}
		if b.Len() != len(ref.lines) || b.Hits() != ref.hits || b.Misses() != ref.misses {
			t.Fatalf("step %d: len/hits/misses %d/%d/%d, reference %d/%d/%d", step,
				b.Len(), b.Hits(), b.Misses(), len(ref.lines), ref.hits, ref.misses)
		}
	}
	if evictions < steps/10 {
		t.Fatalf("only %d evictions in %d steps; the stream does not exercise replacement", evictions, steps)
	}
}

// TestRMWSnapshotAllocs bounds the allocations of a 64-line buffer's
// SaveState and LoadState, each with a fresh encoder or decoder, at 13 and
// 3: warm-started jobs restore snapshots, so a restore that built a second
// map to find duplicate lines would show in the server's allocations.
func TestRMWSnapshotAllocs(t *testing.T) {
	b := NewRMWBuffer(64)
	for i := uint64(0); i < 200; i++ {
		blk := i * 7 % 97 * 256
		b.Insert(blk)
		if i%3 == 0 {
			b.MarkDirty(blk)
		}
	}
	if b.Len() != 64 {
		t.Fatalf("buffer holds %d lines, want 64", b.Len())
	}
	var snap []byte
	save := testing.AllocsPerRun(100, func() {
		var enc ckpt.Enc
		b.SaveState(&enc)
		snap = enc.Bytes()
	})
	r := NewRMWBuffer(64)
	load := testing.AllocsPerRun(100, func() {
		if err := r.LoadState(ckpt.NewDec(snap)); err != nil {
			t.Fatal(err)
		}
	})
	if save > 13 || load > 3 {
		t.Fatalf("SaveState/LoadState allocate %.0f/%.0f objects, want at most 13/3", save, load)
	}
}
