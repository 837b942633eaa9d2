package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/optane"
	"repro/internal/sim"
	"repro/internal/vans"
	"repro/internal/workload"
)

func init() {
	register("tab4", "SPEC CPU workload set (Table IV)", tab4)
	register("fig11a", "IPC: simulated vs server, DRAM main memory", fig11a)
	register("fig11b", "LLC miss rate: simulated vs server", fig11b)
	register("fig11c", "NVRAM speedup: VANS vs Ramulator vs Optane", fig11c)
	register("fig11d", "Simulator accuracy (geomean): VANS vs Ramulator", fig11d)
}

func tab4(sc Scale) *Result {
	r := &Result{ID: "tab4", Title: "Evaluated SPEC CPU benchmarks"}
	t := &analysis.Table{Title: "Table IV",
		Columns: []string{"suite", "workload", "LLC MPKI", "footprint"}}
	for _, b := range workload.SPECTable() {
		t.AddRow(fmt.Sprintf("%d", b.Suite), b.Name,
			fmt.Sprintf("%.1f", b.MPKI), fmt.Sprintf("%.2f GB", b.FootprintMB/1024))
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("all selected workloads have LLC MPKI >= 2, the paper's selection threshold")
	return r
}

// specBenches returns the benchmark subset sized to the scale.
func specBenches(sc Scale) []workload.SPECBench {
	tab := workload.SPECTable()
	if sc.Divisor > 1 {
		// Quick scale: a representative spread (high/low MPKI, 2006/2017).
		names := []string{"mcf", "lbm", "omnetpp", "gcc17", "xz17"}
		var out []workload.SPECBench
		for _, n := range names {
			if b, ok := workload.SPECBenchByName(n); ok {
				// Shrink footprints so quick runs warm up.
				b.FootprintMB /= 32
				out = append(out, b)
			}
		}
		return out
	}
	return tab
}

// dramMain builds the Table V DRAM main memory: DDR4-2666, 4 channels,
// FR-FCFS.
func dramMain() mem.System {
	cfg := dram.DefaultMultiChannelConfig()
	cfg.Channel.Policy = dram.FRFCFS
	return dram.NewMultiChannel(cfg)
}

// serverCPU is the reference ("real server") CPU configuration; simCPU is
// the deliberately degraded configuration standing in for gem5's limited
// Cascade Lake fidelity (the source of the paper's own 61.2% IPC accuracy).
func serverCPU() cpu.Config { return cpu.DefaultConfig() }

func simCPU() cpu.Config {
	c := cpu.DefaultConfig()
	c.ROB = 192
	c.MSHRs = 8
	c.WalkNs = 95
	return c
}

// runSpec executes one bench on one (cpu config, memory) pair.
func runSpec(b workload.SPECBench, ccfg cpu.Config, sys mem.System, instructions int) cpu.Stats {
	core := cpu.New(ccfg, sys)
	return core.Run(workload.SPEC(b, instructions, 99))
}

func fig11a(sc Scale) *Result {
	r := &Result{ID: "fig11a", Title: "IPC validation on DRAM"}
	t := &analysis.Table{Title: "IPC (DRAM main memory)",
		Columns: []string{"workload", "server", "simulated", "accuracy"}}
	var sims, servers []float64
	for _, b := range specBenches(sc) {
		server := runSpec(b, serverCPU(), dramMain(), sc.Instructions).IPC(2.2)
		simmed := runSpec(b, simCPU(), dramMain(), sc.Instructions).IPC(2.2)
		sims = append(sims, simmed)
		servers = append(servers, server)
		t.AddRow(b.Name, fmt.Sprintf("%.2f", server), fmt.Sprintf("%.2f", simmed),
			fmt.Sprintf("%.2f", analysis.Accuracy(simmed, server)))
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("geomean IPC accuracy %.1f%% (paper: 61.2%%; the CPU model, not the memory model, is the error source)",
		analysis.GeomeanAccuracy(sims, servers)*100)
	return r
}

func fig11b(sc Scale) *Result {
	r := &Result{ID: "fig11b", Title: "LLC miss rate validation"}
	t := &analysis.Table{Title: "LLC miss rate",
		Columns: []string{"workload", "server", "simulated", "accuracy"}}
	var sims, servers []float64
	for _, b := range specBenches(sc) {
		server := runSpec(b, serverCPU(), dramMain(), sc.Instructions).LLCMissRate()
		simmed := runSpec(b, simCPU(), dramMain(), sc.Instructions).LLCMissRate()
		sims = append(sims, simmed)
		servers = append(servers, server)
		t.AddRow(b.Name, fmt.Sprintf("%.3f", server), fmt.Sprintf("%.3f", simmed),
			fmt.Sprintf("%.2f", analysis.Accuracy(simmed, server)))
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("mean LLC miss-rate accuracy %.1f%% (paper: 85.5%%)",
		analysis.MeanAccuracy(sims, servers)*100)
	return r
}

// nvramSpeedups computes ExecTimeDRAM/ExecTimeNVRAM per bench for the three
// systems of Figure 11c: the "Optane server" (CPU over the empirical
// reference) and the simulators under test, VANS and Ramulator-PCM, which
// both run with the degraded CPU config, as the paper attaches both to the
// same gem5. Each DRAM baseline runs once per bench and CPU config.
func nvramSpeedups(sc Scale) (optRef, vansS, ram map[string]float64) {
	p := refParams(sc)
	optRef, vansS, ram = map[string]float64{}, map[string]float64{}, map[string]float64{}
	speedup := func(out map[string]float64, b workload.SPECBench, ccfg cpu.Config, dramTime sim.Cycle, nv mem.System) {
		if nvTime := runSpec(b, ccfg, nv, sc.Instructions).Cycles; nvTime != 0 {
			out[b.Name] = float64(dramTime) / float64(nvTime)
		}
	}
	for _, b := range specBenches(sc) {
		serverDRAM := runSpec(b, serverCPU(), dramMain(), sc.Instructions).Cycles
		simDRAM := runSpec(b, simCPU(), dramMain(), sc.Instructions).Cycles
		speedup(optRef, b, serverCPU(), serverDRAM,
			optane.New(optane.Config{Params: p, DIMMs: 1, Seed: 7, Obs: sc.Obs}))
		speedup(vansS, b, simCPU(), simDRAM, vans.New(vansConfig(sc, 1, false)))
		speedup(ram, b, simCPU(), simDRAM, baseline.NewSlowDRAM(baseline.RamulatorPCM))
	}
	return optRef, vansS, ram
}

func fig11c(sc Scale) *Result {
	r := &Result{ID: "fig11c", Title: "NVRAM/DRAM speedup comparison"}
	optRef, vansS, ram := nvramSpeedups(sc)
	t := &analysis.Table{Title: "Speedup (ExecTimeDRAM / ExecTimeNVRAM)",
		Columns: []string{"workload", "Optane", "VANS", "Ramulator"}}
	for _, b := range specBenches(sc) {
		t.AddRow(b.Name,
			fmt.Sprintf("%.3f", optRef[b.Name]),
			fmt.Sprintf("%.3f", vansS[b.Name]),
			fmt.Sprintf("%.3f", ram[b.Name]))
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("speedups below 1: NVRAM main memory slows every workload; VANS tracks the Optane reference more closely than Ramulator-PCM")
	return r
}

func fig11d(sc Scale) *Result {
	r := &Result{ID: "fig11d", Title: "Speedup accuracy (geomean)"}
	optRef, vansS, ram := nvramSpeedups(sc)
	var vSim, vRef, rSim, rRef []float64
	for _, b := range specBenches(sc) {
		if ref, ok := optRef[b.Name]; ok {
			vSim = append(vSim, vansS[b.Name])
			vRef = append(vRef, ref)
			rSim = append(rSim, ram[b.Name])
			rRef = append(rRef, ref)
		}
	}
	accV := analysis.GeomeanAccuracy(vSim, vRef)
	accR := analysis.GeomeanAccuracy(rSim, rRef)
	t := &analysis.Table{Title: "Accuracy", Columns: []string{"simulator", "geomean accuracy"}}
	t.AddRow("VANS", fmt.Sprintf("%.3f", accV))
	t.AddRow("Ramulator", fmt.Sprintf("%.3f", accR))
	r.Tables = append(r.Tables, t)
	r.AddNote("VANS %.1f%% vs Ramulator %.1f%% (paper: 87.1%% vs 65.6%%)", accV*100, accR*100)
	return r
}
