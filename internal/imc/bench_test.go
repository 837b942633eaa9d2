package imc

import (
	"testing"

	"repro/internal/nvdimm"
	"repro/internal/sim"
)

// BenchmarkChannelStoreBackpressure is the iMC's rung: seq NT stores pushed
// through IMC.Write into one channel by a step-and-retry pump, the shape of
// the driver's WPQ-bound store stream. The stores outrun the DIMM, so the
// WPQ stays full and its drain meets a full LSQ, which refuses about one
// offer per two stores. The DIMM below is a real default DIMM, not a stub:
// Channel takes a concrete *nvdimm.DIMM, so its write path (LSQ, RMW
// buffer, AIT, media) is inside the measurement. An op is one accepted
// store; events/op counts the engine events fired per store, and allocs/op
// must stay 0 once the region has been written once.
func BenchmarkChannelStoreBackpressure(b *testing.B) {
	const region = 1 << 20 // bytes the stores cycle through
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig(), []*nvdimm.DIMM{nvdimm.New(eng, nvdimm.DefaultConfig(), 1)})
	done := func(any) {}
	next := uint64(0)
	store := func() {
		addr := next % region
		next += 64
		for !m.Write(addr, nil, done, nil) {
			if !eng.Step() {
				b.Fatal("the engine ran dry with a store refused")
			}
		}
	}
	for next < 2*region {
		store()
	}
	b.ReportAllocs()
	b.ResetTimer()
	fired := eng.Fired()
	for i := 0; i < b.N; i++ {
		store()
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Fired()-fired)/float64(b.N), "events/op")
}
