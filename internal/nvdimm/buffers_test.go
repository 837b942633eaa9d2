package nvdimm

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func TestRMWLRUEviction(t *testing.T) {
	b := NewRMWBuffer(2)
	b.Insert(0)
	b.Insert(256)
	b.Lookup(0) // make 0 most recent
	ev, evicted := b.Insert(512)
	if !evicted || ev.Block != 256 {
		t.Fatalf("evicted = %+v (%v), want block 256", ev, evicted)
	}
	if !b.Peek(0) || !b.Peek(512) || b.Peek(256) {
		t.Fatal("residency wrong after eviction")
	}
}

func TestRMWDirtyEviction(t *testing.T) {
	b := NewRMWBuffer(1)
	b.Insert(0)
	if !b.MarkDirty(0) {
		t.Fatal("MarkDirty on resident failed")
	}
	ev, evicted := b.Insert(256)
	if !evicted || !ev.Dirty || ev.Block != 0 {
		t.Fatalf("dirty eviction = %+v (%v)", ev, evicted)
	}
	if b.MarkDirty(0) {
		t.Fatal("MarkDirty on absent succeeded")
	}
}

func TestRMWReinsertRefreshes(t *testing.T) {
	b := NewRMWBuffer(2)
	b.Insert(0)
	b.Insert(256)
	// Re-insert 0: refresh, no eviction.
	if _, evicted := b.Insert(0); evicted {
		t.Fatal("reinsert evicted")
	}
	_, evicted := b.Insert(512)
	if !evicted {
		t.Fatal("no eviction at capacity")
	}
	if !b.Peek(0) {
		t.Fatal("refreshed line was evicted")
	}
}

// Property: RMW buffer never exceeds capacity and lookups after insert hit.
func TestRMWCapacityInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		b := NewRMWBuffer(8)
		for i := 0; i < 300; i++ {
			blk := rng.Uint64n(32) * 256
			b.Insert(blk)
			if b.Len() > 8 {
				return false
			}
			if !b.Peek(blk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAITBufferSectorSemantics(t *testing.T) {
	b := NewAITBuffer(16, 4, 4096, 256)
	way, secHit := b.LookupSector(5, 0)
	if way >= 0 || secHit {
		t.Fatal("cold lookup hit")
	}
	alloc, _, _ := b.Allocate(5)
	way, secHit = b.LookupSector(5, 0)
	if way != alloc || secHit {
		t.Fatalf("after allocate: way=%d secHit=%v, want %d/false", way, secHit, alloc)
	}
	b.FillSector(5, way, 0)
	_, secHit = b.LookupSector(5, 0)
	if !secHit {
		t.Fatal("filled sector not hit")
	}
	if _, other := b.LookupSector(5, 1); other {
		t.Fatal("unfilled sector hit")
	}
}

func TestAITBufferMissingSectors(t *testing.T) {
	b := NewAITBuffer(16, 4, 1024, 256) // 4 sectors per line
	way, _, _ := b.Allocate(7)
	b.FillSector(7, way, 2)
	if got := b.missingMask(7, way); got != 0b1011 {
		t.Fatalf("missing mask = %04b, want 1011 (every sector but the filled one)", got)
	}
	if got := b.missingMask(99, -1); got != 0 {
		t.Fatalf("absent page missing mask = %04b, want 0", got)
	}
}

func TestAITBufferEvictionDirty(t *testing.T) {
	// 4 entries, 2 ways -> 2 sets. Pages 0 and 2 share set 0.
	b := NewAITBuffer(4, 2, 1024, 256)
	b.Allocate(0)
	b.WriteSector(0, 1, true) // dirty in write-back mode
	b.Allocate(2)
	_, ev, evicted := b.Allocate(4) // set 0 full -> evict LRU (page 0)
	if !evicted || ev.Page != 0 || ev.DirtySector != 0b0010 {
		t.Fatalf("eviction = %+v (%v)", ev, evicted)
	}
}

// TestAITBufferFillMovedLine: a fill whose line was evicted and allocated
// again in another way lands on the page's new way, not on the line that
// took its old one, and a fill for an evicted page changes nothing.
func TestAITBufferFillMovedLine(t *testing.T) {
	// 4 entries, 2 ways -> 2 sets. Pages 0, 2 and 4 share set 0.
	b := NewAITBuffer(4, 2, 1024, 256)
	old, _, _ := b.Allocate(0)
	b.Allocate(2)
	b.Allocate(4) // evicts page 0; page 4 takes its way
	if w, _ := b.LookupSector(4, 0); w != old {
		t.Fatalf("page 4 in way %d, want page 0's old way %d", w, old)
	}
	b.FillSector(0, old, 1) // page 0 is gone: no line may change
	if m := b.missingMask(4, -1); m != 0b1111 {
		t.Fatalf("fill for an evicted page touched page 4: missing %04b", m)
	}
	now, _, _ := b.Allocate(0) // evicts page 2 (LRU): page 0 moves ways
	if now == old {
		t.Fatalf("page 0 came back to way %d; the test needs it to move", now)
	}
	b.FillSector(0, old, 1)
	if m := b.missingMask(0, now); m != 0b1101 {
		t.Fatalf("page 0 missing %04b after a fill with its old way, want 1101", m)
	}
	if m := b.missingMask(4, old); m != 0b1111 {
		t.Fatalf("page 4 missing %04b, want 1111: the fill landed on the old way", m)
	}
}

func TestAITBufferWriteThroughNotDirty(t *testing.T) {
	b := NewAITBuffer(4, 2, 1024, 256)
	b.Allocate(0)
	b.WriteSector(0, 0, false)
	if len(b.DirtyPages()) != 0 {
		t.Fatal("write-through marked dirty")
	}
	if _, hit := b.LookupSector(0, 0); !hit {
		t.Fatal("written sector not valid")
	}
}

func TestAITBufferCleanLine(t *testing.T) {
	b := NewAITBuffer(4, 2, 1024, 256)
	b.Allocate(3)
	b.WriteSector(3, 0, true)
	b.CleanLine(3)
	if len(b.DirtyPages()) != 0 {
		t.Fatal("CleanLine did not clear dirty bits")
	}
}

func TestTranslatorIdentityByDefault(t *testing.T) {
	tr := NewTranslator(4096, 1<<20)
	if tr.Translate(5) != 5 || tr.Reverse(5) != 5 {
		t.Fatal("default translation not identity")
	}
	if tr.ToMedia(4096*3+17) != 4096*3+17 {
		t.Fatal("ToMedia not identity")
	}
	// Only a migration ever leaves the identity, so the leaf directories
	// wait for one: a swap of a page with itself writes identity entries.
	tr.SwapPages(3, 3)
	if tr.fwd.leaves != nil || tr.rev.leaves != nil {
		t.Fatal("an identity translator allocated a leaf directory")
	}
}

func TestTranslatorSwap(t *testing.T) {
	tr := NewTranslator(4096, 1<<20)
	tr.SwapPages(1, 7)
	if tr.Translate(1) != 7 || tr.Translate(7) != 1 {
		t.Fatal("swap failed")
	}
	if tr.Reverse(7) != 1 || tr.Reverse(1) != 7 {
		t.Fatal("reverse inconsistent")
	}
	// Swapping back restores identity.
	tr.SwapPages(1, 7)
	if tr.Translate(1) != 1 || tr.fwd.mapped() != 0 {
		t.Fatal("swap-back did not restore identity")
	}
}

// Property: under arbitrary swap sequences, the translation remains a
// bijection with Reverse as its inverse.
func TestTranslatorBijectionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		tr := NewTranslator(4096, 1<<22) // 1024 pages
		n := tr.pages
		for i := 0; i < 200; i++ {
			tr.SwapPages(rng.Uint64n(n), rng.Uint64n(n))
		}
		seen := make(map[uint64]bool)
		for p := uint64(0); p < n; p++ {
			f := tr.Translate(p)
			if f >= n || seen[f] {
				return false
			}
			seen[f] = true
			if tr.Reverse(f) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAITLineSize pins an AIT buffer line at 24 bytes on 64-bit hosts: its
// two words first and the flags packed behind them, so a 16-way set scan
// reads 384 bytes and the 16 MB buffer's 4,096 lines take 96 KiB per DIMM.
func TestAITLineSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("line layout is pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(aitLine{}); n != 24 {
		t.Fatalf("aitLine is %d bytes, want 24", n)
	}
}
