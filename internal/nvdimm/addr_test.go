package nvdimm

import (
	"fmt"
	"testing"

	"repro/internal/media"
	"repro/internal/sim"
)

// addrGeometries are the DIMM geometries the repository builds: the
// paper's, the quick-scale AIT of the figures and the LENS runs, and the
// two other-NVRAM flavors (512B and 1024B blocks, 8KB lines), each with a
// media capacity that is a power of two and one that is not (a job spec's
// media_bytes may be any size).
func addrGeometries() []Config {
	var out []Config
	for _, g := range []struct {
		block, line      uint64
		entries, ways    int
		capacity, wblock uint64
	}{
		{256, 4096, 4096, 16, 256 << 20, 64 << 10},
		{256, 4096, 64, 16, 16 << 20, 64 << 10},
		{512, 4096, 8, 8, 64 << 20, 64 << 10},
		{1024, 8192, 64, 8, 64 << 20, 64 << 10},
	} {
		for _, capacity := range []uint64{g.capacity, g.capacity - 5*g.line + 3} {
			cfg := DefaultConfig()
			cfg.RMWBlock, cfg.AITLine = g.block, g.line
			cfg.AITEntries, cfg.AITWays = g.entries, g.ways
			cfg.Media.BlockSize, cfg.Media.Capacity, cfg.Media.WearBlock = g.block, capacity, g.wblock
			out = append(out, cfg)
		}
	}
	return out
}

// TestAddrHelpersMatchDivision checks the shift-and-mask address helpers
// of the DIMM, the AIT buffer, the translator and the wear-leveler against
// the division formulas they replaced, on every geometry the repository
// builds, over random 64-bit addresses (far beyond the media, so the
// translator folds them) and random addresses on the media. The translator
// is checked after migrations, so it is not the identity.
func TestAddrHelpersMatchDivision(t *testing.T) {
	for _, cfg := range addrGeometries() {
		name := fmt.Sprintf("block %d, line %d, %d entries, capacity %d",
			cfg.RMWBlock, cfg.AITLine, cfg.AITEntries, cfg.Media.Capacity)
		d := New(sim.NewEngine(), cfg, 1)
		tr, buf, w := d.trans, d.buf, d.wear
		capacity := d.med.Config().Capacity
		pages := capacity / cfg.AITLine
		rng := sim.NewRNG(5)
		for i := 0; i < 64; i++ {
			tr.SwapPages(rng.Uint64n(pages), rng.Uint64n(pages))
		}
		for i := 0; i < 20000; i++ {
			addr := rng.Uint64()
			if i%2 == 1 {
				addr %= capacity
			}
			if got, want := d.block(addr), addr-addr%cfg.RMWBlock; got != want {
				t.Fatalf("%s: block(%#x) = %#x, division %#x", name, addr, got, want)
			}
			page := d.page(addr)
			if want := addr / cfg.AITLine; page != want {
				t.Fatalf("%s: page(%#x) = %d, division %d", name, addr, page, want)
			}
			sector := d.sector(addr)
			if want := int(addr % cfg.AITLine / cfg.RMWBlock); sector != want {
				t.Fatalf("%s: sector(%#x) = %d, division %d", name, addr, sector, want)
			}
			if got, want := d.dataAddr(page, sector),
				dataBase+page%uint64(cfg.AITEntries)*cfg.AITLine+uint64(sector)*cfg.RMWBlock; got != want {
				t.Fatalf("%s: dataAddr(%d, %d) = %#x, division %#x", name, page, sector, got, want)
			}
			sets := uint64(buf.numSets)
			if got, want := &buf.set(page)[0], &buf.lines[int(page%sets)*buf.ways]; got != want {
				t.Fatalf("%s: set(%d) is not set %d", name, page, page%sets)
			}
			if got, want := tr.Translate(page), tr.fwd.get(page%pages); got != want {
				t.Fatalf("%s: Translate(%d) = %d, division %d", name, page, got, want)
			}
			if got, want := tr.Reverse(page), tr.rev.get(page%pages); got != want {
				t.Fatalf("%s: Reverse(%d) = %d, division %d", name, page, got, want)
			}
			if got, want := tr.ToMedia(addr), tr.fwd.get(page%pages)*cfg.AITLine+addr%cfg.AITLine; got != want {
				t.Fatalf("%s: ToMedia(%#x) = %#x, division %#x", name, addr, got, want)
			}
			wb := d.med.Config().WearBlock
			if got, want := w.block(addr), addr-addr%wb; got != want {
				t.Fatalf("%s: wear block(%#x) = %#x, division %#x", name, addr, got, want)
			}
		}
	}
}

// TestNonPowerOfTwoGeometryPanics: the address helpers hold only for
// power-of-two geometry, so construction refuses anything else rather than
// mapping it wrongly.
func TestNonPowerOfTwoGeometryPanics(t *testing.T) {
	mustPanic := func(what string, build func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s was accepted", what)
			}
		}()
		build()
	}
	for _, c := range []struct {
		what string
		set  func(*Config)
	}{
		{"an AIT line of 3000 bytes", func(c *Config) { c.AITLine = 3000 }},
		{"an RMW block of 384 bytes", func(c *Config) { c.RMWBlock = 384 }},
		{"48 AIT entries", func(c *Config) { c.AITEntries = 48; c.AITWays = 16 }},
		{"an LSQ combine block of 192 bytes", func(c *Config) { c.LSQCombineBlock = 192 }},
		{"6 media partitions", func(c *Config) { c.Media.Partitions = 6 }},
		{"a media block of 384 bytes", func(c *Config) { c.Media.BlockSize = 384 }},
		{"a wear block of 48KB", func(c *Config) { c.Media.WearBlock = 48 << 10 }},
	} {
		cfg := DefaultConfig()
		cfg.Media.Capacity = 16 << 20
		c.set(&cfg)
		mustPanic(c.what, func() { New(sim.NewEngine(), cfg, 1) })
	}
	mustPanic("an AIT buffer of 3 sets", func() { NewAITBuffer(48, 16, 4096, 256) })
	mustPanic("a translator page of 3000 bytes", func() { NewTranslator(3000, 1<<20) })
	mustPanic("an LSQ combining at 96 bytes", func() { NewLSQ(8, 96) })
	mustPanic("media with 12 partitions", func() { media.New(sim.NewEngine(), media.Config{Partitions: 12}) })
}
