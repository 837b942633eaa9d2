package dram

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDRAMScheduleN times one composed 4-burst access (an AIT sector
// read or write) through the controller's queue, FR-FCFS scheduler and
// completion FIFO, issued 16 at a time so accesses overlap as they do under
// AIT line fills. allocs/op must stay 0.
func BenchmarkDRAMScheduleN(b *testing.B) {
	eng := sim.NewEngine()
	c := NewController(eng, DefaultConfig())
	done := func(any) {}
	rng := sim.NewRNG(1)
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = rng.Uint64n(c.cfg.Geometry.Capacity()/256) * 256
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScheduleN(addrs[i%len(addrs)], i%4 == 0, 4, done, nil)
		if i%16 == 15 {
			eng.Run()
		}
	}
	eng.Run()
}
