package mem

import "testing"

// BenchmarkDriverRefusedRetry measures the driver's issue loop with the
// memory system stubbed out: a windowed stream of 64 B stores into a fake
// with 4 slots and a 60-cycle latency whose clock ticks every cycle, so a
// slot frees about every 15 events and most submits are refused, as in the
// store-write workload (about 15 refused submits per store). One op is one
// store; a warm run allocates nothing.
func BenchmarkDriverRefusedRetry(b *testing.B) {
	sys := newFakeSystem(60, 4)
	sys.tick = 1
	d := NewDriver(sys)
	accs := make([]Access, 4096)
	for i := range accs {
		accs[i] = Access{Op: OpWriteNT, Addr: uint64(i) * 64, Size: 64}
	}
	d.RunWindow(accs, 16) // warm the request free list and the engine's slab
	sys.refused = 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= len(accs) {
		sys.accepted = sys.accepted[:0]
		d.RunWindow(accs[:min(n, len(accs))], 16)
	}
	b.ReportMetric(float64(sys.refused)/float64(b.N), "refused/op")
}
