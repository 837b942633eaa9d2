package exp

import (
	"repro/internal/baseline"
	"repro/internal/lens"
	"repro/internal/mem"
	"repro/internal/optane"
	"repro/internal/vans"
)

// vansConfig builds a VANS configuration at the scale.
func vansConfig(sc Scale, dimms int, interleaved bool) vans.Config {
	cfg := vans.DefaultConfig()
	cfg.DIMMs = dimms
	cfg.Interleaved = interleaved
	if sc.Divisor > 1 {
		cfg.NV.RMWEntries = max(4, cfg.NV.RMWEntries/sc.Divisor*4) // keep >= a few lines
		cfg.NV.AITEntries = max(8, cfg.NV.AITEntries/sc.Divisor)
		cfg.NV.AITWays = min(cfg.NV.AITWays, cfg.NV.AITEntries)
		cfg.NV.Media.Capacity = 64 << 20
	}
	cfg.Obs = sc.Obs
	return cfg
}

// vansWearConfig additionally applies the scale's wear-leveling parameters
// (for the overwrite/migration experiments).
func vansWearConfig(sc Scale, dimms int, interleaved bool) vans.Config {
	cfg := vansConfig(sc, dimms, interleaved)
	cfg.NV.WearThreshold = sc.WearThreshold
	cfg.NV.MigrationNs = sc.MigrationNs
	return cfg
}

// mkVANS returns a constructor for fresh VANS instances.
func mkVANS(sc Scale, dimms int, interleaved bool) lens.MakeSystem {
	cfg := vansConfig(sc, dimms, interleaved)
	return func() mem.System { return vans.New(cfg) }
}

// mkOptane returns a constructor for the empirical reference machine.
func mkOptane(sc Scale, dimms int, interleaved bool) lens.MakeSystem {
	p := refParams(sc)
	return func() mem.System {
		return optane.New(optane.Config{Params: p, DIMMs: dimms, Interleaved: interleaved, Seed: 7, Obs: sc.Obs})
	}
}

// mkPMEP returns a constructor for the PMEP emulator.
func mkPMEP() lens.MakeSystem {
	return func() mem.System { return baseline.NewPMEP(baseline.DefaultPMEP(), 3) }
}

// mkSlow returns a constructor for a slower-DRAM baseline flavor.
func mkSlow(kind baseline.SimKind) lens.MakeSystem {
	return func() mem.System { return baseline.NewSlowDRAM(kind) }
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// bandwidthFlavors measures the Figure 1a bandwidth set on a system: load,
// store, store-clwb (each store followed by a clwb), store-nt.
func bandwidthFlavors(mk lens.MakeSystem, opt lens.Options) map[string]float64 {
	out := map[string]float64{}
	total := uint64(8 << 20)
	out["load"] = lens.StrideBandwidth(mk, 64, total, mem.OpRead, opt)
	out["store"] = lens.StrideBandwidth(mk, 64, total, mem.OpWrite, opt)
	out["store-nt"] = lens.StrideBandwidth(mk, 64, total, mem.OpWriteNT, opt)
	out["store-clwb"] = clwbBandwidth(mk, total, opt)
	return out
}

// clwbBandwidth measures a store+clwb stream.
func clwbBandwidth(mk lens.MakeSystem, total uint64, opt lens.Options) float64 {
	sys := mk()
	d := mem.NewDriver(sys)
	n := int(total / 64)
	if n > opt.MaxSteps {
		n = opt.MaxSteps
	}
	accs := make([]mem.Access, 0, 2*n)
	for i := 0; i < n; i++ {
		addr := uint64(i) * 64
		accs = append(accs,
			mem.Access{Op: mem.OpWrite, Addr: addr, Size: 64},
			mem.Access{Op: mem.OpClwb, Addr: addr, Size: 64})
	}
	elapsed := d.RunWindow(accs, opt.Window)
	start := sys.Engine().Now()
	d.Fence()
	elapsed += sys.Engine().Now() - start
	return mem.BandwidthGBs(sys, uint64(n)*64, elapsed)
}
