package cache

import "testing"

// BenchmarkCacheNew builds the CPU's 32 MiB, 16-way L3 and fills one line:
// the per-cache setup cost a CPU-driven job pays.
func BenchmarkCacheNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(Config{SizeBytes: 32 << 20, Ways: 16, LineBytes: 64})
		c.Fill(uint64(i)*64, false)
	}
}
