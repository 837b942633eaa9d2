package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/lens"
	"repro/internal/mem"
	"repro/internal/nvdimm"
	"repro/internal/pool"
	"repro/internal/vans"
)

// Section IV-E: "Modeling Other NVRAM DIMMs". VANS's modular design lets a
// user reconfigure it for hypothetical devices; LENS then recovers the new
// parameters blind — the loop the paper describes for adapting the
// framework. Two alternative device presets exercise that claim.
func init() {
	register("other-nvram", "Other NVRAM DIMMs: reconfigure VANS, re-run LENS", otherNVRAM)
}

// FastSCMConfig models a hypothetical next-generation storage-class-memory
// DIMM: faster media (e.g., denser selector, lower program energy), a
// single large combined buffer (no two-level hierarchy), and 512B media
// granularity.
func FastSCMConfig() nvdimm.Config {
	cfg := nvdimm.DefaultConfig()
	cfg.Media.ReadNs = 90
	cfg.Media.WriteNs = 200
	cfg.Media.BlockSize = 512
	cfg.RMWBlock = 512
	cfg.RMWEntries = 32 // 32 x 512B = 16KB single buffer level
	cfg.AITEntries = 32 // tiny AIT buffer: effectively one level
	cfg.AITWays = 8
	cfg.WearThreshold = 100000 // better endurance
	return cfg
}

// DenseArchiveConfig models a capacity-optimized archival DIMM: slow media,
// huge 1KB granularity, large buffers to hide it.
func DenseArchiveConfig() nvdimm.Config {
	cfg := nvdimm.DefaultConfig()
	cfg.Media.ReadNs = 450
	cfg.Media.WriteNs = 1500
	cfg.Media.BlockSize = 1024
	cfg.RMWBlock = 1024
	cfg.RMWEntries = 32 // 32KB buffer
	cfg.AITLine = 8192
	cfg.AITEntries = 64 // 512KB second level (scaled)
	cfg.AITWays = 8
	return cfg
}

func otherNVRAM(sc Scale) *Result {
	r := &Result{ID: "other-nvram", Title: "Reconfiguring VANS for other devices"}
	t := &analysis.Table{Title: "LENS-recovered parameters per device",
		Columns: []string{"device", "L1 buffer", "L2 buffer", "L1 grain", "media tier ns"}}

	devices := []struct {
		name string
		cfg  nvdimm.Config
	}{
		{"Optane (paper)", scaledNV(sc, nvdimm.DefaultConfig())},
		{"fast-SCM", scaledNV(sc, FastSCMConfig())},
		{"dense-archive", scaledNV(sc, DenseArchiveConfig())},
	}
	// Each device's probe run is independent (own systems, fixed seeds), so
	// they fan out across the pool budget; rows land in their own slot and
	// are assembled in device order, keeping the table byte-identical to a
	// sequential run.
	rows := make([][]string, len(devices))
	pool.ForEach(len(devices), func(i int) {
		dev := devices[i]
		vcfg := vans.DefaultConfig()
		vcfg.NV = dev.cfg
		vcfg.Obs = sc.Obs
		mk := func() mem.System { return vans.New(vcfg) }
		rep := lens.BufferProber(mk, lens.BufferProberConfig{
			Regions:      sc.Regions,
			BlockSizes:   sc.BlockSizes,
			KneeRatio:    1.2,
			MaxReadKnees: 2,
			Options:      sc.Opt,
		})
		get := func(xs []uint64, i int) string {
			if i < len(xs) {
				return mem.Bytes(xs[i])
			}
			return "-"
		}
		mediaNs := lens.PtrChase(mk, dev.cfg.AITBytes()*4, 64, mem.OpRead, sc.Opt)
		rows[i] = []string{dev.name,
			get(rep.ReadBufferBytes, 0), get(rep.ReadBufferBytes, 1),
			get(rep.ReadGranularity, 0), fmt.Sprintf("%.0f", mediaNs)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("the same probers, run blind, recover each device's distinct buffer sizes and granularities — the Section IV-E adaptation loop")
	return r
}

// scaledNV shrinks a device preset to the experiment scale.
func scaledNV(sc Scale, cfg nvdimm.Config) nvdimm.Config {
	if sc.Divisor > 1 {
		cfg.RMWEntries = max(4, cfg.RMWEntries/sc.Divisor*4)
		cfg.AITEntries = max(8, cfg.AITEntries/sc.Divisor)
		cfg.AITWays = min(cfg.AITWays, cfg.AITEntries)
		cfg.Media.Capacity = 64 << 20
	}
	return cfg
}
