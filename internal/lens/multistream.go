package lens

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// MultiStreamBandwidth drives `streams` independent access sequences into
// one system concurrently, each with its own outstanding window — the
// multi-threaded access pattern whose poor scaling on Optane the follow-on
// literature attributes to WPQ/RMW/AIT contention. Stream i replays
// perStream[i%len(perStream)]. It returns the aggregate GB/s.
//
// Streams are interleaved at submission by mem.Driver.RunStreams: every
// stream keeps up to perStreamWindow requests in flight, and the engine
// advances whenever all runnable streams are blocked.
func MultiStreamBandwidth(mk MakeSystem, streams int, perStream []([]mem.Access),
	perStreamWindow int) float64 {
	sys := mk()
	all := make([][]mem.Access, streams)
	var totalBytes uint64
	for i := range all {
		all[i] = perStream[i%len(perStream)]
		totalBytes += uint64(len(all[i])) * 64
	}
	elapsed := mem.NewDriver(sys).RunStreams(all, perStreamWindow)
	return mem.BandwidthGBs(sys, totalBytes, elapsed)
}

// StreamAccesses builds one stream's access list: sequential 64B ops inside
// a private address range (streams do not share lines, as independent
// threads would not).
func StreamAccesses(stream int, n int, op mem.Op, rangeBytes uint64) []mem.Access {
	base := uint64(stream) * rangeBytes
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{Op: op, Addr: base + uint64(i)*64%rangeBytes, Size: 64}
	}
	return accs
}

// RandomStreamAccesses builds a random-order stream (per-thread pointer
// chase flavor).
func RandomStreamAccesses(stream int, n int, op mem.Op, rangeBytes uint64, seed uint64) []mem.Access {
	base := uint64(stream) * rangeBytes
	rng := sim.NewRNG(seed + uint64(stream)*977)
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{Op: op, Addr: base + rng.Uint64n(rangeBytes)&^63, Size: 64}
	}
	return accs
}
