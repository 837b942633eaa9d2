package lens

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// MultiStreamBandwidth drives `streams` independent access sequences into
// one system concurrently, each with its own outstanding window — the
// multi-threaded access pattern whose poor scaling on Optane the follow-on
// literature attributes to WPQ/RMW/AIT contention. It returns the aggregate
// GB/s.
//
// Streams are interleaved at submission: every stream keeps up to
// perStreamWindow requests in flight, and the engine advances whenever all
// runnable streams are blocked.
func MultiStreamBandwidth(mk MakeSystem, streams int, perStream []([]mem.Access),
	perStreamWindow int) float64 {
	sys := mk()
	eng := sys.Engine()
	if perStreamWindow < 1 {
		perStreamWindow = 1
	}

	// Each stream binds its completion once, keeps a refused request for
	// its next attempt, and recycles completed requests: the streams retry
	// after every engine event, so an attempt must cost nothing.
	type streamState struct {
		accs     []mem.Access
		next     int
		inflight int
		held     *mem.Request
		onDone   func(*mem.Request)
	}
	var free sim.FreeList[mem.Request]
	states := make([]*streamState, streams)
	var totalBytes uint64
	for i := 0; i < streams; i++ {
		st := &streamState{accs: perStream[i%len(perStream)]}
		st.onDone = func(r *mem.Request) {
			st.inflight--
			free.Put(r)
		}
		states[i] = st
		totalBytes += uint64(len(st.accs)) * 64
	}

	start := eng.Now()
	var id uint64
	remaining := streams
	for remaining > 0 {
		progressed := false
		for _, st := range states {
			if st.next >= len(st.accs) {
				continue
			}
			for st.inflight < perStreamWindow && st.next < len(st.accs) {
				r := st.held
				if r == nil {
					a := st.accs[st.next]
					id++
					r = free.Get()
					*r = mem.Request{ID: id, Op: a.Op, Addr: a.Addr, Size: a.Size, OnDone: st.onDone}
				}
				if !sys.Submit(r) {
					st.held = r
					break
				}
				st.held = nil
				st.next++
				st.inflight++
				progressed = true
				if st.next >= len(st.accs) {
					remaining--
				}
			}
		}
		if !progressed {
			if eng.Pending() == 0 {
				panic("lens: multistream stalled with no pending events")
			}
			eng.Step()
		}
	}
	// Drain all in-flight requests.
	for {
		busy := false
		for _, st := range states {
			if st.inflight > 0 {
				busy = true
			}
		}
		if !busy {
			break
		}
		if eng.Pending() == 0 {
			panic("lens: multistream drain stalled")
		}
		eng.Step()
	}
	elapsed := eng.Now() - start
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
