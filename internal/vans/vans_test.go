package vans

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

func smallNV(cfg Config) Config {
	cfg.NV.Media.Capacity = 64 << 20
	return cfg
}

func TestRouteUnrouteBijection(t *testing.T) {
	cfg := smallNV(Interleaved6())
	s := New(cfg)
	f := func(addrRaw uint64) bool {
		addr := addrRaw % (1 << 32)
		ch, local := s.IMC().Route(addr)
		if ch < 0 || ch >= 6 {
			return false
		}
		return s.IMC().Unroute(ch, local) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteInterleaveGranularity(t *testing.T) {
	s := New(smallNV(Interleaved6()))
	// Addresses within one 4KB span map to the same channel; the next span
	// maps to the next channel.
	ch0, _ := s.IMC().Route(0)
	ch0b, _ := s.IMC().Route(4095)
	ch1, _ := s.IMC().Route(4096)
	if ch0 != ch0b {
		t.Fatal("same 4KB span split across channels")
	}
	if ch1 == ch0 {
		t.Fatal("next 4KB span on same channel")
	}
	// Non-interleaved: everything on channel 0.
	s2 := New(smallNV(DefaultConfig()))
	if ch, local := s2.IMC().Route(123456); ch != 0 || local != 123456 {
		t.Fatalf("non-interleaved route = %d,%d", ch, local)
	}
}

func TestAppDirectReadWriteFence(t *testing.T) {
	s := New(smallNV(DefaultConfig()))
	d := mem.NewDriver(s)
	lats := d.RunChain([]mem.Access{
		{Op: mem.OpRead, Addr: 1 << 20, Size: 64},
		{Op: mem.OpWriteNT, Addr: 1 << 20, Size: 64},
	})
	if lats[0] == 0 || lats[1] == 0 {
		t.Fatalf("zero latencies: %v", lats)
	}
	d.Fence()
	if !s.Drained() {
		t.Fatal("system not drained after fence")
	}
	_, w := s.MediaStats()
	if w == 0 {
		t.Fatal("fence did not reach media")
	}
}

func TestStoreFasterThanLoad(t *testing.T) {
	// Stores complete at WPQ (ADR) acceptance; loads pay the full NVDIMM
	// round trip, so a cold store is faster than a cold load.
	s := New(smallNV(DefaultConfig()))
	d := mem.NewDriver(s)
	st := d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 1 << 21, Size: 64}})[0]
	ld := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 22, Size: 64}})[0]
	if st >= ld {
		t.Fatalf("posted store (%d) not faster than cold load (%d)", st, ld)
	}
}

func TestInterleavingSpeedsUpSequentialWrites(t *testing.T) {
	run := func(cfg Config) sim.Cycle {
		s := New(smallNV(cfg))
		d := mem.NewDriver(s)
		accs := make([]mem.Access, 1024) // 64KB sequential
		for i := range accs {
			accs[i] = mem.Access{Op: mem.OpWriteNT, Addr: uint64(i) * 64, Size: 64}
		}
		elapsed := d.RunWindow(accs, 8)
		return elapsed
	}
	one := run(DefaultConfig())
	six := run(Interleaved6())
	if six >= one {
		t.Fatalf("6-DIMM interleaved (%d) not faster than 1 DIMM (%d)", six, one)
	}
}

func TestWPQForwarding(t *testing.T) {
	s := New(smallNV(DefaultConfig()))
	d := mem.NewDriver(s)
	d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 4096, Size: 64}})
	fwd := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 4096, Size: 64}})[0]
	cold := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 22, Size: 64}})[0]
	if fwd >= cold {
		t.Fatalf("forwarded read (%d) not faster than cold (%d)", fwd, cold)
	}
}

func TestFunctionalDataThroughInterleaver(t *testing.T) {
	cfg := smallNV(Interleaved6())
	cfg.Functional = true
	s := New(cfg)
	d := mem.NewDriver(s)
	// Write distinct payloads across several interleave spans.
	payloads := map[uint64][]byte{}
	for i := 0; i < 12; i++ {
		addr := uint64(i) * 4096
		p := []byte{byte(i), byte(i + 1), byte(i + 2)}
		payloads[addr] = p
		req := &mem.Request{Op: mem.OpWriteNT, Addr: addr, Size: 64, Data: p}
		done := false
		req.OnDone = func(*mem.Request) { done = true }
		for !s.Submit(req) {
			s.Engine().Step()
		}
		s.Engine().RunWhile(func() bool { return !done })
	}
	d.Fence()
	for addr, p := range payloads {
		if got := s.ReadData(addr, len(p)); !bytes.Equal(got, p) {
			t.Fatalf("addr %d: got %v want %v", addr, got, p)
		}
	}
}

func TestMemoryModeCacheHitsFasterThanMisses(t *testing.T) {
	cfg := smallNV(DefaultConfig())
	cfg.Mode = MemoryMode
	cfg.DRAMCacheBytes = 1 << 20
	s := New(cfg)
	d := mem.NewDriver(s)
	miss := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 21, Size: 64}})[0]
	hit := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 21, Size: 64}})[0]
	if hit >= miss {
		t.Fatalf("cache hit (%d) not faster than miss (%d)", hit, miss)
	}
	st := s.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestMemoryModeWriteBack(t *testing.T) {
	cfg := smallNV(DefaultConfig())
	cfg.Mode = MemoryMode
	cfg.DRAMCacheBytes = 64 * 4 // 4 lines: tiny, to force conflicts
	s := New(cfg)
	d := mem.NewDriver(s)
	// Write line A, then read conflicting line B (same set) to evict A.
	d.RunChain([]mem.Access{{Op: mem.OpWrite, Addr: 0, Size: 64}})
	d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 64 * 4, Size: 64}})
	d.Fence()
	if s.Cache().Stats().WriteBacks == 0 {
		t.Fatal("dirty eviction produced no write-back")
	}
}

func TestMemoryModeFence(t *testing.T) {
	cfg := smallNV(DefaultConfig())
	cfg.Mode = MemoryMode
	s := New(cfg)
	d := mem.NewDriver(s)
	d.RunChain([]mem.Access{{Op: mem.OpWrite, Addr: 128, Size: 64}})
	d.Fence()
	if !s.Drained() {
		t.Fatal("memory-mode fence left system busy")
	}
}

func TestModeString(t *testing.T) {
	if AppDirect.String() != "AppDirect" || MemoryMode.String() != "Memory" {
		t.Fatal("mode names wrong")
	}
}

func TestMigrationsAcrossDIMMs(t *testing.T) {
	cfg := smallNV(DefaultConfig())
	cfg.NV.WearThreshold = 25
	s := New(cfg)
	d := mem.NewDriver(s)
	for i := 0; i < 60; i++ {
		d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 4096, Size: 64}})
		d.Fence()
	}
	if s.Migrations() == 0 {
		t.Fatal("no migrations aggregated")
	}
}

// TestStoreStreamEventsPerAccess pins the engine cost of a WPQ-bound store
// stream: 4 MB of non-temporal stores with wear threshold 50 and a drained
// barrier every 4096 accesses, then a fence. The LSQ drain spends most of
// such a run blocked by the internal-write cap or below its triggers; its
// ticks stay parked until a completion, a crossing of high water, a flush or
// the oldest entry's age wakes them. The iMC's retry of a WPQ line the full
// LSQ refuses stays parked until the LSQ pops a group. Re-arming every
// epoch, the stream fired 37.8 events per access; with the drain parked and
// the retry re-arming every 53 cycles, 16.3; with both parked, 5.4.
func TestStoreStreamEventsPerAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NV.WearThreshold = 50
	s := New(cfg)
	d := mem.NewDriver(s)
	d.SetCkpt(&mem.CkptPolicy{Every: 4096})
	accs := workload.SeqAccesses(4<<20, mem.OpWriteNT)
	d.RunWindow(accs, 10)
	d.Fence()
	per := float64(s.Engine().Fired()) / float64(len(accs))
	if per > 6 {
		t.Fatalf("%.2f events per access, want at most 6", per)
	}
	if m := s.Migrations(); m != 320 {
		t.Fatalf("%d wear migrations, want 320", m)
	}
	t.Logf("%.2f events per access", per)
}
