package vans

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
)

// The allocation guards below pin the closure-free request path: once warm,
// and with lifecycle tracing off, a request allocates nothing anywhere from
// System.Submit down to the on-DIMM DRAM. Each system carries an obs context
// (registry and histograms, no tracer) the way server.Runner builds it, so
// the histogram-recording branches are on the measured path.

func newAllocSystem() *System {
	cfg := DefaultConfig()
	cfg.Obs = obs.New()
	return New(cfg)
}

// TestReadMissAllocFree: a read to a page the AIT buffer does not hold
// misses, fetches its critical sector from media, and fills the rest of the
// 4KB line in the background.
func TestReadMissAllocFree(t *testing.T) {
	s := newAllocSystem()
	d := s.DIMMs()[0]
	eng := s.Engine()
	completed := 0
	onDone := func(*mem.Request) { completed++ }
	r := new(mem.Request)
	page := uint64(0)
	read := func() {
		*r = mem.Request{Op: mem.OpRead, Addr: page*4096 + 512, Size: 64, OnDone: onDone}
		page++
		if !s.Submit(r) {
			t.Fatal("read refused on an idle system")
		}
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		read()
	}
	st0, media0 := d.Stats(), d.Media().Stats().Reads
	const runs = 200
	// AllocsPerRun makes one extra warm-up call before measuring.
	if avg := testing.AllocsPerRun(runs, read); avg != 0 {
		t.Fatalf("AIT-miss read allocated %.2f objects per access, want 0", avg)
	}
	st, media := d.Stats(), d.Media().Stats().Reads
	if misses := st.AITLineMiss - st0.AITLineMiss; misses != runs+1 {
		t.Fatalf("%d AIT line misses over %d reads; the guard must measure the miss path", misses, runs+1)
	}
	// Critical sector plus 15 background sector fills per line.
	if got, want := media-media0, uint64(16*(runs+1)); got != want {
		t.Fatalf("%d media reads over %d misses, want %d (line fills)", got, runs+1, want)
	}
	if completed != 64+runs+1 {
		t.Fatalf("%d reads completed, want %d", completed, 64+runs+1)
	}
}

// TestRefusedStoreAllocFree: a store the iMC refuses under WPQ back-pressure
// leaves nothing behind — the driver retries such a store after every
// engine event, so each refusal must be free.
func TestRefusedStoreAllocFree(t *testing.T) {
	s := newAllocSystem()
	onDone := func(*mem.Request) {}
	slots := s.IMC().Config().WPQSlots
	reqs := make([]mem.Request, slots+1)
	for i := range reqs {
		reqs[i] = mem.Request{Op: mem.OpWriteNT, Addr: uint64(i) * 4096, Size: 64, OnDone: onDone}
	}
	for i := 0; i < slots; i++ {
		if !s.Submit(&reqs[i]) {
			t.Fatalf("store %d refused before the WPQ filled", i)
		}
	}
	extra := &reqs[slots]
	if avg := testing.AllocsPerRun(200, func() {
		if s.Submit(extra) {
			t.Fatal("store accepted beyond WPQ capacity")
		}
	}); avg != 0 {
		t.Fatalf("refused store allocated %.2f objects per try, want 0", avg)
	}
	s.Engine().Run()
}

// TestDrainedStoreAllocFree: four stores covering one 256B block travel
// WPQ -> LSQ (combined into one group) -> RMW buffer -> AIT (write-through)
// -> media.
func TestDrainedStoreAllocFree(t *testing.T) {
	s := newAllocSystem()
	d := s.DIMMs()[0]
	eng := s.Engine()
	completed := 0
	onDone := func(*mem.Request) { completed++ }
	var reqs [4]mem.Request
	block := uint64(0)
	store := func() {
		for i := range reqs {
			reqs[i] = mem.Request{Op: mem.OpWriteNT, Addr: block*256 + uint64(i)*64, Size: 64, OnDone: onDone}
			if !s.Submit(&reqs[i]) {
				t.Fatal("store refused with the WPQ drained")
			}
		}
		block += 17 // a fresh AIT page every few blocks, no wear hot spot
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		store()
	}
	writes0, merges0 := d.Media().Stats().Writes, d.Stats().LSQMerges
	const runs = 200
	if avg := testing.AllocsPerRun(runs, store); avg != 0 {
		t.Fatalf("drained 256B store allocated %.2f objects per block, want 0", avg)
	}
	if got := d.Media().Stats().Writes - writes0; got != runs+1 {
		t.Fatalf("%d media writes for %d combined blocks, want one each", got, runs+1)
	}
	if d.Stats().LSQMerges != merges0 {
		t.Fatal("stores to distinct lines merged in the LSQ")
	}
	if completed != 4*(64+runs+1) {
		t.Fatalf("%d stores completed, want %d", completed, 4*(64+runs+1))
	}
}
