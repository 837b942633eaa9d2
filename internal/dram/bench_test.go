package dram

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDRAMScheduleN times one composed 4-burst access through the
// controller's queue, FR-FCFS scheduler and completion path, issued 16 at
// a time so accesses overlap as they do under AIT line fills, and reports
// the events fired per access. "done" is an AIT sector read or write with
// a continuation; "nil-done" a write with none, the shape of a line fill's
// buffer write, whose completion is a passive slot rather than an event.
// allocs/op must stay 0.
func BenchmarkDRAMScheduleN(b *testing.B) {
	b.Run("done", func(b *testing.B) {
		benchScheduleN(b, func(any) {}, func(i int) bool { return i%4 == 0 })
	})
	b.Run("nil-done", func(b *testing.B) {
		benchScheduleN(b, nil, func(int) bool { return true })
	})
}

func benchScheduleN(b *testing.B, done func(any), write func(i int) bool) {
	eng := sim.NewEngine()
	c := NewController(eng, DefaultConfig())
	rng := sim.NewRNG(1)
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = rng.Uint64n(c.cfg.Geometry.Capacity()/256) * 256
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScheduleN(addrs[i%len(addrs)], write(i), 4, done, nil)
		if i%16 == 15 {
			eng.Run()
		}
	}
	eng.Run()
	b.ReportMetric(float64(eng.Fired())/float64(b.N), "events/op")
}
