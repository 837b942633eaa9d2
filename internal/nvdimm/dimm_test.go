package nvdimm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// smallConfig shrinks structures so tests exercise overflow paths quickly.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Media.Capacity = 64 << 20
	return cfg
}

func TestReadLatencyTiers(t *testing.T) {
	sys := NewSystem(smallConfig(), 1)
	d := mem.NewDriver(sys)

	cold := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 20, Size: 64}})[0]
	rmwHit := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 20, Size: 64}})[0]
	if rmwHit >= cold {
		t.Fatalf("RMW hit (%d) not faster than cold media read (%d)", rmwHit, cold)
	}
	// Let the background line fill settle, then read another block of the
	// same 4KB page: AIT buffer sector hit — between RMW hit and cold.
	sys.Engine().RunUntil(sys.Engine().Now() + 4000)
	aitHit := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1<<20 + 512, Size: 64}})[0]
	if aitHit <= rmwHit {
		t.Fatalf("AIT hit (%d) not slower than RMW hit (%d)", aitHit, rmwHit)
	}
	if aitHit >= cold {
		t.Fatalf("AIT hit (%d) not faster than cold media read (%d)", aitHit, cold)
	}
}

func TestRMWBufferCapacityOverflow(t *testing.T) {
	// Chase within a region that fits the RMW buffer vs one that does not;
	// the overflowing region must be slower per access.
	runRegion := func(region uint64) float64 {
		sys := NewSystem(smallConfig(), 1)
		d := mem.NewDriver(sys)
		rng := sim.NewRNG(7)
		blocks := int(region / 256)
		perm := rng.PermCycle(blocks)
		var accs []mem.Access
		// Two passes: first warms, second measures steady state.
		for pass := 0; pass < 2; pass++ {
			at := 0
			for i := 0; i < blocks; i++ {
				accs = append(accs, mem.Access{Op: mem.OpRead, Addr: uint64(at) * 256, Size: 64})
				at = int(perm[at])
			}
		}
		lats := d.RunChain(accs)
		var sum float64
		half := len(lats) / 2
		for _, l := range lats[half:] {
			sum += float64(l)
		}
		return sum / float64(half)
	}
	fit := runRegion(8 << 10)       // 8KB < 16KB RMW buffer
	overflow := runRegion(64 << 10) // 64KB > 16KB, < 16MB
	if overflow <= fit*1.2 {
		t.Fatalf("RMW overflow (%.1f) not clearly slower than fit (%.1f)", overflow, fit)
	}
}

func TestStoreKneeAtLSQCapacity(t *testing.T) {
	// Sustained 64B stores over a region that fits the LSQ (combining keeps
	// occupancy low) vs one that overflows it (backpressure sets in).
	runStores := func(region uint64, n int) sim.Cycle {
		sys := NewSystem(smallConfig(), 1)
		d := mem.NewDriver(sys)
		accs := make([]mem.Access, n)
		for i := range accs {
			accs[i] = mem.Access{Op: mem.OpWriteNT, Addr: uint64(i) * 64 % region, Size: 64}
		}
		return d.RunWindow(accs, 8)
	}
	const n = 2000
	fit := runStores(2<<10, n)       // 2KB region < 4KB LSQ
	overflow := runStores(64<<10, n) // 64KB region > 4KB LSQ
	if overflow <= fit {
		t.Fatalf("store overflow time (%d) not above fit time (%d)", overflow, fit)
	}
}

func TestLSQForwardingFastReads(t *testing.T) {
	sys := NewSystem(smallConfig(), 1)
	d := mem.NewDriver(sys)
	// Store then immediately read the same line: LSQ forward is fast.
	d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 4096, Size: 64}})
	fwd := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 4096, Size: 64}})[0]
	cold := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 22, Size: 64}})[0]
	if fwd >= cold {
		t.Fatalf("forwarded read (%d) not faster than cold read (%d)", fwd, cold)
	}
	if sys.D.Stats().LSQForwards != 1 {
		t.Fatalf("LSQForwards = %d, want 1", sys.D.Stats().LSQForwards)
	}
}

func TestFenceDurability(t *testing.T) {
	sys := NewSystem(smallConfig(), 1)
	d := mem.NewDriver(sys)
	for i := 0; i < 8; i++ {
		d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: uint64(i) * 64, Size: 64}})
	}
	d.Fence()
	if sys.D.Busy() {
		t.Fatal("DIMM busy after fence completion")
	}
	if sys.D.Media().Stats().Writes == 0 {
		t.Fatal("fence did not push writes to media (write-through mode)")
	}
}

func TestWearLevelingMigrationTriggers(t *testing.T) {
	cfg := smallConfig()
	cfg.WearThreshold = 40
	sys := NewSystem(cfg, 1)
	d := mem.NewDriver(sys)
	// Overwrite one 256B region; each fenced iteration is one media write.
	var tail, normal int
	var normalSum, tailMax sim.Cycle
	for iter := 0; iter < 100; iter++ {
		start := sys.Engine().Now()
		for l := uint64(0); l < 4; l++ {
			d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 4096 + l*64, Size: 64}})
		}
		d.Fence()
		lat := sys.Engine().Now() - start
		if lat > 20000 { // > 15us: migration stall
			tail++
			if lat > tailMax {
				tailMax = lat
			}
		} else {
			normal++
			normalSum += lat
		}
	}
	if sys.D.Stats().Migrations == 0 {
		t.Fatal("no migrations after crossing wear threshold")
	}
	if tail == 0 {
		t.Fatal("no tail-latency iterations observed")
	}
	avgNormal := float64(normalSum) / float64(normal)
	if float64(tailMax) < 20*avgNormal {
		t.Fatalf("tail (%d) not >> normal (%.0f)", tailMax, avgNormal)
	}
	// Roughly every WearThreshold iterations.
	if m := sys.D.Stats().Migrations; m > 4 {
		t.Fatalf("too many migrations: %d in 100 iterations at threshold 40", m)
	}
}

func TestFunctionalDataEndToEnd(t *testing.T) {
	cfg := smallConfig()
	cfg.Functional = true
	sys := NewSystem(cfg, 1)
	d := mem.NewDriver(sys)
	payload := []byte("persist me")
	req := &mem.Request{Op: mem.OpWriteNT, Addr: 8192, Size: 64, Data: payload}
	done := false
	req.OnDone = func(*mem.Request) { done = true }
	if !sys.Submit(req) {
		t.Fatal("submit failed")
	}
	sys.Engine().RunWhile(func() bool { return !done })
	d.Fence()
	if got := sys.D.ReadData(8192, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("ReadData = %q, want %q", got, payload)
	}
}

func TestFunctionalDataSurvivesMigration(t *testing.T) {
	cfg := smallConfig()
	cfg.Functional = true
	cfg.WearThreshold = 20
	sys := NewSystem(cfg, 3)
	d := mem.NewDriver(sys)
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	// Plant data in the region that will migrate.
	req := &mem.Request{Op: mem.OpWriteNT, Addr: 4096, Size: 64, Data: payload}
	sys.Submit(req)
	d.Fence()
	// Hammer the same wear block until it migrates several times.
	for iter := 0; iter < 100; iter++ {
		d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 4096 + 256, Size: 64}})
		d.Fence()
	}
	if sys.D.Stats().Migrations == 0 {
		t.Fatal("expected migrations")
	}
	if got := sys.D.ReadData(4096, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("data lost across migration: %v", got)
	}
}

func TestTranslationStaysBijectiveUnderMigrations(t *testing.T) {
	cfg := smallConfig()
	cfg.WearThreshold = 10
	sys := NewSystem(cfg, 9)
	d := mem.NewDriver(sys)
	for iter := 0; iter < 200; iter++ {
		addr := uint64(iter%4) * (128 << 10)
		d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: addr, Size: 64}})
		d.Fence()
	}
	if sys.D.Stats().Migrations < 2 {
		t.Fatalf("migrations = %d, want several", sys.D.Stats().Migrations)
	}
	tr := sys.D.Translator()
	seen := make(map[uint64]bool)
	n := tr.pages
	for p := uint64(0); p < n; p++ {
		f := tr.Translate(p)
		if seen[f] {
			t.Fatalf("translation not bijective: frame %d duplicated", f)
		}
		seen[f] = true
		if tr.Reverse(f) != p {
			t.Fatalf("Reverse(Translate(%d)) = %d", p, tr.Reverse(f))
		}
	}
}

func TestPartialWriteTriggersRMWFill(t *testing.T) {
	cfg := smallConfig()
	cfg.LSQDrainAgeNs = 20 // drain quickly so partial groups emerge
	sys := NewSystem(cfg, 1)
	d := mem.NewDriver(sys)
	// Single 64B store to a cold block: partial group, absent line -> RMW
	// read-modify-write fill.
	d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 1 << 21, Size: 64}})
	d.Fence()
	if sys.D.Stats().PartialRMW == 0 {
		t.Fatal("partial write did not trigger RMW fill")
	}
	if sys.D.Media().Stats().Reads == 0 {
		t.Fatal("RMW fill did not read media")
	}
}

func TestWriteCombiningReducesMediaWrites(t *testing.T) {
	run := func(sameBlock bool) uint64 {
		sys := NewSystem(smallConfig(), 1)
		d := mem.NewDriver(sys)
		accs := make([]mem.Access, 64)
		for i := range accs {
			var addr uint64
			if sameBlock {
				addr = uint64(i%4) * 64 // 4 lines of one 256B block
			} else {
				addr = uint64(i) * 256 // distinct blocks
			}
			accs[i] = mem.Access{Op: mem.OpWriteNT, Addr: addr, Size: 64}
		}
		d.RunWindow(accs, 4)
		d.Fence()
		return sys.D.Media().Stats().Writes
	}
	combined := run(true)
	scattered := run(false)
	if combined >= scattered {
		t.Fatalf("combining did not reduce media writes: same-block=%d scattered=%d",
			combined, scattered)
	}
}

func TestWriteBackModeCoalesces(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteThrough = false
	sys := NewSystem(cfg, 1)
	d := mem.NewDriver(sys)
	// Repeatedly write the same block without fences: write-back RMW should
	// absorb them with almost no media writes.
	for i := 0; i < 200; i++ {
		d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: uint64(i%4) * 64, Size: 64}})
	}
	sys.Engine().RunUntil(sys.Engine().Now() + 100000)
	if w := sys.D.Media().Stats().Writes; w > 4 {
		t.Fatalf("write-back mode produced %d media writes, want ~0", w)
	}
}

func TestStatsPopulated(t *testing.T) {
	sys := NewSystem(smallConfig(), 1)
	d := mem.NewDriver(sys)
	d.RunChain([]mem.Access{
		{Op: mem.OpRead, Addr: 0, Size: 64},
		{Op: mem.OpWriteNT, Addr: 64, Size: 64},
	})
	d.Fence()
	st := sys.D.Stats()
	if st.ClientReads != 1 || st.ClientWrites != 1 {
		t.Fatalf("client counters: %+v", st)
	}
	if st.TableReads == 0 {
		t.Fatal("no AIT table reads recorded")
	}
}

func TestConfigSizes(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LSQBytes() != 4<<10 {
		t.Fatalf("LSQBytes = %d, want 4KB", cfg.LSQBytes())
	}
	if cfg.RMWBytes() != 16<<10 {
		t.Fatalf("RMWBytes = %d, want 16KB", cfg.RMWBytes())
	}
	if cfg.AITBytes() != 16<<20 {
		t.Fatalf("AITBytes = %d, want 16MB", cfg.AITBytes())
	}
}

func TestOnDIMMDRAMCommandsLegal(t *testing.T) {
	cfg := smallConfig()
	cfg.DRAM.TapCommands = true
	sys := NewSystem(cfg, 1)
	d := mem.NewDriver(sys)
	rng := sim.NewRNG(11)
	var accs []mem.Access
	for i := 0; i < 300; i++ {
		op := mem.OpRead
		if rng.Intn(2) == 0 {
			op = mem.OpWriteNT
		}
		accs = append(accs, mem.Access{Op: op, Addr: rng.Uint64n(32 << 20), Size: 64})
	}
	d.RunWindow(accs, 8)
	d.Fence()
	dc := sys.D.DRAM()
	cmds := dc.Commands()
	if len(cmds) == 0 {
		t.Fatal("no on-DIMM DRAM commands recorded")
	}
	// Verify with the DDR4 checker — the paper's Micron-model step.
	vs := dimNewCheckerForTest(cfg).Check(cmds)
	if len(vs) > 0 {
		t.Fatalf("%d DDR4 violations in on-DIMM DRAM trace, first: %s", len(vs), vs[0])
	}
}
