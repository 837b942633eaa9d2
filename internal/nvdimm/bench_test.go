package nvdimm

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDIMMReadMiss times one DIMM read that misses the RMW buffer and
// the AIT data buffer — translation-table DRAM read, critical-sector media
// read, background fill of the other 15 sectors and their DRAM buffer
// writes — driven directly, with no iMC or driver in front. It is the
// chase-read workload's per-access path below the iMC; allocs/op must stay
// 0.
func BenchmarkDIMMReadMiss(b *testing.B) {
	eng := sim.NewEngine()
	d := New(eng, DefaultConfig(), 1)
	done := func(any, error) {}
	page := uint64(0)
	read := func() {
		// Pages cycle through 4GB of media, far beyond the 16MB AIT buffer,
		// so every read misses.
		d.Read(page%(1<<20)*4096+512, done, nil)
		page++
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		read()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// BenchmarkLSQAcceptPop times the LSQ's line index on the write path: the
// default DIMM's 64-slot LSQ, combining at 256 B, takes sequential 64 B
// lines up to its high water of 48, and PopGroup then drains it, 12
// complete groups of four lines. One op is one fill and drain; the lines
// move on each op, so every op indexes fresh keys. allocs/op must stay 0.
func BenchmarkLSQAcceptPop(b *testing.B) {
	cfg := DefaultConfig()
	q := NewLSQ(cfg.LSQSlots, cfg.LSQCombineBlock)
	line := uint64(0)
	fillDrain := func() {
		for i := 0; i < cfg.LSQHighWater; i++ {
			if _, ok := q.Accept(line, sim.Cycle(i)); !ok {
				b.Fatalf("line %#x refused below high water", line)
			}
			line += 64
		}
		for !q.Empty() {
			q.PopGroup()
		}
	}
	fillDrain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillDrain()
	}
}
