package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newTestController(cfg Config) *Controller {
	return NewController(sim.NewEngine(), cfg)
}

func TestMapAddrUnmapRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	f := func(addrRaw uint64) bool {
		addr := addrRaw % g.Capacity()
		c := g.MapAddr(addr)
		return g.UnmapAddr(c) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMapAddrInRange(t *testing.T) {
	g := DefaultGeometry()
	f := func(addrRaw uint64) bool {
		c := g.MapAddr(addrRaw % g.Capacity())
		return c.Rank >= 0 && c.Rank < g.Ranks &&
			c.BankGroup >= 0 && c.BankGroup < g.BankGroups &&
			c.Bank >= 0 && c.Bank < g.Banks &&
			c.Row < g.Rows && c.Col < g.RowSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// mapAddrDiv is the row-interleaved address map written with divisions and
// remainders, as the controller applied it to addr modulo the capacity. It
// holds for any geometry and is the reference for the shift-and-mask map.
func mapAddrDiv(g Geometry, addr uint64) Coord {
	a := addr % g.Capacity()
	col := a % g.RowSize
	a /= g.RowSize
	bank := int(a % uint64(g.Banks))
	a /= uint64(g.Banks)
	bg := int(a % uint64(g.BankGroups))
	a /= uint64(g.BankGroups)
	rank := int(a % uint64(g.Ranks))
	a /= uint64(g.Ranks)
	return Coord{Rank: rank, BankGroup: bg, Bank: bank, Row: a % g.Rows, Col: col}
}

// TestMapAddrMatchesDivision checks the shift-and-mask map against the
// division reference on every geometry the repository builds, over random
// 64-bit addresses (most far beyond the capacity, whose high bits the map
// must ignore) and random addresses within it.
func TestMapAddrMatchesDivision(t *testing.T) {
	for _, g := range []Geometry{
		DefaultGeometry(),
		{Ranks: 2, BankGroups: 4, Banks: 4, RowSize: 8192, Rows: 1024},
	} {
		rng := sim.NewRNG(11)
		for i := 0; i < 20000; i++ {
			addr := rng.Uint64()
			if i%2 == 1 {
				addr %= g.Capacity()
			}
			if got, want := g.MapAddr(addr), mapAddrDiv(g, addr); got != want {
				t.Fatalf("geometry %+v, address %#x: MapAddr %+v, division %+v", g, addr, got, want)
			}
		}
	}
}

// TestNewControllerRejectsNonPowerOfTwoGeometry: the shift-and-mask map
// holds only when every dimension is a power of two, so the controller
// refuses any other geometry rather than mapping it wrongly.
func TestNewControllerRejectsNonPowerOfTwoGeometry(t *testing.T) {
	for _, g := range []Geometry{
		{Ranks: 3, BankGroups: 4, Banks: 4, RowSize: 8192, Rows: 1024},
		{Ranks: 1, BankGroups: 4, Banks: 4, RowSize: 6144, Rows: 1024},
		{Ranks: 1, BankGroups: 4, Banks: 4, RowSize: 8192, Rows: 1000},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewController accepted geometry %+v", g)
				}
			}()
			cfg := DefaultConfig()
			cfg.Geometry = g
			NewController(sim.NewEngine(), cfg)
		}()
	}
}

func TestMapAddrSameRowForNearbyAddrs(t *testing.T) {
	g := DefaultGeometry()
	a := g.MapAddr(0)
	b := g.MapAddr(64)
	if a.Row != b.Row || a.Bank != b.Bank || a.BankGroup != b.BankGroup {
		t.Fatalf("addresses 0 and 64 map to different rows/banks: %+v vs %+v", a, b)
	}
	if b.Col != 64 {
		t.Fatalf("col = %d, want 64", b.Col)
	}
}

func TestNsCycleConversion(t *testing.T) {
	if NsToCycles(0.75) != 1 {
		t.Fatalf("NsToCycles(0.75) = %d, want 1", NsToCycles(0.75))
	}
	if NsToCycles(0) != 0 || NsToCycles(-5) != 0 {
		t.Fatal("non-positive ns should be 0 cycles")
	}
	got := CyclesToNs(1333)
	if got < 999 || got > 1001 {
		t.Fatalf("CyclesToNs(1333) = %v, want ~1000", got)
	}
}

// readLatency issues a single dependent read and returns its latency.
func readLatency(t *testing.T, c *Controller, addr uint64) sim.Cycle {
	t.Helper()
	d := mem.NewDriver(c)
	lats := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: addr, Size: 64}})
	return lats[0]
}

func TestRowMissReadLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	got := readLatency(t, c, 0)
	// Cold bank: ACT at ~0, RD at tRCD, data at +tCL+tBurst.
	want := cfg.Timing.TRCD + cfg.Timing.TCL + cfg.Timing.TBurst
	if got != want {
		t.Fatalf("cold read latency = %d, want %d", got, want)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	first := readLatency(t, c, 0)
	hit := readLatency(t, c, 128) // same row
	if hit >= first {
		t.Fatalf("row hit latency %d not below miss latency %d", hit, first)
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestRowConflictSlowerThanHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	g := cfg.Geometry
	readLatency(t, c, 0) // opens row 0 of bank 0
	// Conflicting address: same bank, different row.
	conflictAddr := g.UnmapAddr(Coord{Rank: 0, BankGroup: 0, Bank: 0, Row: 5, Col: 0})
	conflict := readLatency(t, c, conflictAddr)
	hit := readLatency(t, c, conflictAddr+64)
	if conflict <= hit {
		t.Fatalf("conflict latency %d not above hit latency %d", conflict, hit)
	}
	if c.Stats().RowConf != 1 {
		t.Fatalf("RowConf = %d, want 1", c.Stats().RowConf)
	}
}

func TestWriteCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	d := mem.NewDriver(c)
	lats := d.RunChain([]mem.Access{{Op: mem.OpWrite, Addr: 0, Size: 64}})
	want := cfg.Timing.TRCD + cfg.Timing.TWL + cfg.Timing.TBurst
	if lats[0] != want {
		t.Fatalf("write latency = %d, want %d", lats[0], want)
	}
	if c.Stats().Writes != 1 {
		t.Fatal("write not counted")
	}
}

func TestFenceCompletesAfterDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	d := mem.NewDriver(c)
	accs := []mem.Access{
		{Op: mem.OpWrite, Addr: 0, Size: 64},
		{Op: mem.OpWrite, Addr: 64, Size: 64},
	}
	elapsed := d.RunWindow(accs, 8)
	_ = elapsed
	lat := d.Fence()
	if lat == 0 {
		t.Fatal("fence latency should be nonzero")
	}
	if !c.Drained() {
		t.Fatal("controller not drained after fence")
	}
}

func TestBandwidthImprovesWithWindow(t *testing.T) {
	mkAccs := func(n int) []mem.Access {
		accs := make([]mem.Access, n)
		for i := range accs {
			accs[i] = mem.Access{Op: mem.OpRead, Addr: uint64(i) * 64, Size: 64}
		}
		return accs
	}
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	serial := newTestController(cfg)
	tSerial := mem.NewDriver(serial).RunWindow(mkAccs(256), 1)
	overlapped := newTestController(cfg)
	tOver := mem.NewDriver(overlapped).RunWindow(mkAccs(256), 16)
	if tOver >= tSerial {
		t.Fatalf("windowed run (%d) not faster than serial (%d)", tOver, tSerial)
	}
}

func TestSchedulerEmitsLegalCommands_Sequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TapCommands = true
	c := newTestController(cfg)
	d := mem.NewDriver(c)
	accs := make([]mem.Access, 512)
	for i := range accs {
		op := mem.OpRead
		if i%3 == 0 {
			op = mem.OpWrite
		}
		accs[i] = mem.Access{Op: op, Addr: uint64(i) * 64, Size: 64}
	}
	d.RunWindow(accs, 8)
	vs := NewChecker(cfg.Timing, cfg.Geometry).Check(c.Commands())
	for _, v := range vs {
		t.Errorf("violation: %s", v)
	}
}

func TestSchedulerEmitsLegalCommands_Random(t *testing.T) {
	for _, pol := range []Policy{FCFS, FRFCFS} {
		cfg := DefaultConfig()
		cfg.TapCommands = true
		cfg.Policy = pol
		c := newTestController(cfg)
		d := mem.NewDriver(c)
		rng := sim.NewRNG(12345)
		accs := make([]mem.Access, 2000)
		for i := range accs {
			op := mem.OpRead
			if rng.Intn(2) == 0 {
				op = mem.OpWrite
			}
			accs[i] = mem.Access{Op: op, Addr: rng.Uint64n(cfg.Geometry.Capacity()) &^ 63, Size: 64}
		}
		d.RunWindow(accs, 16)
		vs := NewChecker(cfg.Timing, cfg.Geometry).Check(c.Commands())
		if len(vs) > 0 {
			t.Errorf("%v: %d violations, first: %s", pol, len(vs), vs[0])
		}
	}
}

func TestSchedulerEmitsLegalCommands_LongRunWithRefresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TapCommands = true
	c := newTestController(cfg)
	d := mem.NewDriver(c)
	rng := sim.NewRNG(777)
	// Dependent chain so simulated time passes many tREFI periods.
	accs := make([]mem.Access, 600)
	for i := range accs {
		accs[i] = mem.Access{Op: mem.OpRead, Addr: rng.Uint64n(1<<26) &^ 63, Size: 64}
	}
	d.RunChain(accs)
	if c.Stats().Refreshes == 0 {
		t.Fatal("no refreshes fired over a long run")
	}
	vs := NewChecker(cfg.Timing, cfg.Geometry).Check(c.Commands())
	if len(vs) > 0 {
		t.Fatalf("%d violations with refresh, first: %s", len(vs), vs[0])
	}
}

func TestCheckerRejectsMutatedTraces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.TapCommands = true
	c := newTestController(cfg)
	d := mem.NewDriver(c)
	accs := make([]mem.Access, 64)
	for i := range accs {
		accs[i] = mem.Access{Op: mem.OpRead, Addr: uint64(i) * 8192 * 4, Size: 64}
	}
	d.RunWindow(accs, 8)
	base := c.Commands()
	chk := NewChecker(cfg.Timing, cfg.Geometry)
	if vs := chk.Check(base); len(vs) != 0 {
		t.Fatalf("baseline trace illegal: %s", vs[0])
	}

	mutations := []struct {
		name string
		mut  func([]Cmd) []Cmd
	}{
		{"drop first ACT", func(cs []Cmd) []Cmd {
			out := make([]Cmd, 0, len(cs))
			dropped := false
			for _, cmd := range cs {
				if !dropped && cmd.Kind == CmdACT {
					dropped = true
					continue
				}
				out = append(out, cmd)
			}
			return out
		}},
		{"RD too early after ACT", func(cs []Cmd) []Cmd {
			out := append([]Cmd(nil), cs...)
			for i := range out {
				if out[i].Kind == CmdRD {
					out[i].At -= cfg.Timing.TRCD // violates tRCD
					break
				}
			}
			return out
		}},
		{"double ACT", func(cs []Cmd) []Cmd {
			out := append([]Cmd(nil), cs...)
			for _, cmd := range cs {
				if cmd.Kind == CmdACT {
					dup := cmd
					dup.At += 2
					out = append(out, dup)
					break
				}
			}
			return out
		}},
		{"RD to wrong row", func(cs []Cmd) []Cmd {
			out := append([]Cmd(nil), cs...)
			for i := range out {
				if out[i].Kind == CmdRD {
					out[i].Row += 9
					break
				}
			}
			return out
		}},
	}
	for _, m := range mutations {
		if vs := chk.Check(m.mut(base)); len(vs) == 0 {
			t.Errorf("mutation %q not detected", m.name)
		}
	}
}

func TestCheckerFAWRule(t *testing.T) {
	tm := DDR42666()
	g := DefaultGeometry()
	chk := NewChecker(tm, g)
	var cmds []Cmd
	// 5 ACTs to distinct banks, spaced by tRRD only: the 5th violates tFAW.
	at := sim.Cycle(0)
	for i := 0; i < 5; i++ {
		cmds = append(cmds, Cmd{At: at, Kind: CmdACT,
			Coord: Coord{BankGroup: i % g.BankGroups, Bank: i / g.BankGroups, Row: 1}})
		at += tm.TRRD
	}
	vs := chk.Check(cmds)
	if len(vs) == 0 {
		t.Fatal("tFAW violation not detected")
	}
}

func TestCheckerRefRequiresPrecharged(t *testing.T) {
	tm := DDR42666()
	g := DefaultGeometry()
	chk := NewChecker(tm, g)
	cmds := []Cmd{
		{At: 0, Kind: CmdACT, Coord: Coord{Row: 1}},
		{At: 100, Kind: CmdREF, Coord: Coord{}},
	}
	if vs := chk.Check(cmds); len(vs) == 0 {
		t.Fatal("REF with open bank not detected")
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.Policy = FRFCFS
	c := newTestController(cfg)
	d := mem.NewDriver(c)
	g := cfg.Geometry
	conflict := g.UnmapAddr(Coord{Row: 3})
	// Interleave row-0 hits with row-3 conflicts; FR-FCFS should batch hits.
	var accs []mem.Access
	for i := 0; i < 32; i++ {
		accs = append(accs, mem.Access{Op: mem.OpRead, Addr: uint64(i) * 64, Size: 64})
		accs = append(accs, mem.Access{Op: mem.OpRead, Addr: conflict + uint64(i)*64, Size: 64})
	}
	tFR := d.RunWindow(accs, 16)

	cfg2 := cfg
	cfg2.Policy = FCFS
	c2 := newTestController(cfg2)
	tFC := mem.NewDriver(c2).RunWindow(accs, 16)
	if tFR >= tFC {
		t.Fatalf("FR-FCFS (%d) not faster than FCFS (%d) on conflicting mix", tFR, tFC)
	}
	if c.Stats().RowConf >= c2.Stats().RowConf {
		t.Fatalf("FR-FCFS conflicts (%d) not fewer than FCFS (%d)",
			c.Stats().RowConf, c2.Stats().RowConf)
	}
}

func TestControllerBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 2
	c := newTestController(cfg)
	ok1 := c.Submit(&mem.Request{Op: mem.OpRead, Addr: 0, Size: 64})
	ok2 := c.Submit(&mem.Request{Op: mem.OpRead, Addr: 64, Size: 64})
	if !ok1 || !ok2 {
		t.Fatal("queue rejected requests below capacity")
	}
	if c.Submit(&mem.Request{Op: mem.OpRead, Addr: 128, Size: 64}) {
		t.Fatal("queue accepted request beyond capacity")
	}
}

func TestScheduleCompositionEntryPoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	doneCount := 0
	if !c.Schedule(0, false, func(any) { doneCount++ }, nil) {
		t.Fatal("Schedule rejected")
	}
	c.Engine().Run()
	if doneCount != 1 {
		t.Fatalf("done fired %d times, want 1", doneCount)
	}
	if !c.Drained() {
		t.Fatal("not drained after completion")
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || FRFCFS.String() != "fr-fcfs" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}

func TestCmdString(t *testing.T) {
	c := Cmd{At: 5, Kind: CmdACT, Coord: Coord{Rank: 0, BankGroup: 1, Bank: 2, Row: 3}}
	if c.String() == "" {
		t.Fatal("empty command string")
	}
	for _, k := range []CmdKind{CmdACT, CmdPRE, CmdRD, CmdWR, CmdREF, CmdKind(42)} {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := Geometry{Ranks: 2, BankGroups: 4, Banks: 4, RowSize: 8192, Rows: 1024}
	want := uint64(2*4*4) * 1024 * 8192
	if g.Capacity() != want {
		t.Fatalf("Capacity = %d, want %d", g.Capacity(), want)
	}
}
