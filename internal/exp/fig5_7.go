package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/lens"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/vans"
	"repro/internal/workload"
)

func init() {
	register("fig5a", "Buffer prober: ld/st latency, 64B PC-Block", fig5a)
	register("fig5b", "Buffer prober: ld/st latency, 256B PC-Block", fig5b)
	register("fig5c", "RaW vs R+W roundtrip latency", fig5c)
	register("fig5d", "L2 TLB MPKI during the load test", fig5d)
	register("fig6a", "Read amplification score vs PC-Block size", fig6a)
	register("fig6b", "Write amplification score vs PC-Block size", fig6b)
	register("fig7a", "Sequential write time: 1 vs 6 DIMMs", fig7a)
	register("fig7b", "Overwrite tail latency (wear-leveling)", fig7b)
	register("fig7c", "Tail ratio vs overwrite region (wear block)", fig7c)
	register("fig7d", "TLB misses during the overwrite test", fig7d)
	register("fig4", "LENS characterization of VANS (reverse engineering)", fig4)
}

func fig5a(sc Scale) *Result {
	r := &Result{ID: "fig5a", Title: "Load/store latency per CL, 64B PC-Block"}
	mk := mkOptane(sc, 1, false)
	ld := lens.PtrChaseSweep(mk, sc.Regions, 64, mem.OpRead, sc.Opt)
	ld.Name = "ld"
	st := lens.PtrChaseSweep(mk, sc.Regions, 64, mem.OpWriteNT, sc.Opt)
	st.Name = "st"
	r.Series = append(r.Series, ld, st)
	rd := analysis.LargestKnees(ld, 2)
	wr := analysis.LargestKnees(st, 2)
	r.AddNote("read overflow points: %v (RMW and AIT buffers)", rd)
	r.AddNote("write overflow points: %v (WPQ and LSQ)", wr)
	return r
}

func fig5b(sc Scale) *Result {
	r := &Result{ID: "fig5b", Title: "Load/store latency per CL, 256B PC-Block"}
	mk := mkOptane(sc, 1, false)
	ld := lens.PtrChaseSweep(mk, sc.Regions, 256, mem.OpRead, sc.Opt)
	ld.Name = "ld-256"
	st := lens.PtrChaseSweep(mk, sc.Regions, 256, mem.OpWriteNT, sc.Opt)
	st.Name = "st-256"
	r.Series = append(r.Series, ld, st)
	r.AddNote("256B blocks amortize the RMW fill: small-region read latency %.0f -> large %.0f ns",
		ld.Y[0], ld.Y[len(ld.Y)-1])
	return r
}

func fig5c(sc Scale) *Result {
	r := &Result{ID: "fig5c", Title: "RaW vs R+W roundtrip latency per CL"}
	mk := mkVANS(sc, 1, false)
	raw := &analysis.Series{Name: "RaW", XLabel: "region (bytes)", YLabel: "ns/CL"}
	rpw := &analysis.Series{Name: "R+W", XLabel: "region (bytes)", YLabel: "ns/CL"}
	var regions []uint64
	for _, reg := range sc.Regions {
		if reg >= 512 && reg <= 1<<20 {
			regions = append(regions, reg)
		}
	}
	results := make([]lens.RaWResult, len(regions))
	pool.ForEach(len(regions), func(i int) {
		results[i] = lens.ReadAfterWrite(mk, regions[i], sc.Opt)
	})
	for i, reg := range regions {
		raw.Add(float64(reg), results[i].RaWNs)
		rpw.Add(float64(reg), results[i].RPlusWNs)
	}
	r.Series = append(r.Series, raw, rpw)
	small := raw.Y[0] / rpw.Y[0]
	large := raw.Y[len(raw.Y)-1] / rpw.Y[len(rpw.Y)-1]
	r.AddNote("RaW/R+W: %.2fx at %s, %.2fx at %s (converges as the LSQ amortizes)",
		small, mem.Bytes(regions[0]), large, mem.Bytes(regions[len(regions)-1]))
	r.AddNote("no RaW speedup anywhere: the buffers form an inclusive hierarchy")
	return r
}

// chaseTLB runs a pointer-chasing load workload through the CPU over VANS
// and reports STLB MPKI.
func chaseTLB(sc Scale, region uint64) float64 {
	cfg := vansConfig(sc, 1, false)
	sys := vans.New(cfg)
	core := cpu.New(cpu.DefaultConfig(), sys)
	nodes := int(region / 64)
	if nodes < 2 {
		nodes = 2
	}
	hops := sc.Instructions / 8
	if hops > 20000 {
		hops = 20000
	}
	w := chaseLoads(nodes, hops, 64)
	st := core.Run(w)
	return st.STLBMPKI()
}

// chaseLoads builds a dependent-load chase over nodes of the given stride.
func chaseLoads(nodes, hops int, stride uint64) cpu.Workload {
	perm := permCycle(nodes)
	ins := make([]cpu.Instr, 0, hops)
	at := 0
	for i := 0; i < hops; i++ {
		ins = append(ins, cpu.Instr{
			IsMem: true, IsLoad: true, DependsOnLoad: true,
			Addr: uint64(at) * stride, Class: cpu.ClassRead})
		at = int(perm[at])
	}
	return &cpu.SliceWorkload{Instrs: ins}
}

func fig5d(sc Scale) *Result {
	r := &Result{ID: "fig5d", Title: "L2 TLB MPKI in the load test"}
	s := &analysis.Series{Name: "L2 TLB MPKI", XLabel: "region (bytes)", YLabel: "MPKI"}
	var regions []uint64
	for _, reg := range sc.Regions {
		if reg >= 4096 && reg <= 4<<20 {
			regions = append(regions, reg)
		}
	}
	mpki := make([]float64, len(regions))
	pool.ForEach(len(regions), func(i int) {
		mpki[i] = chaseTLB(sc, regions[i])
	})
	for i, reg := range regions {
		s.Add(float64(reg), mpki[i])
	}
	r.Series = append(r.Series, s)
	knees := analysis.Knees(s, 3.0)
	r.AddNote("TLB misses change smoothly (%d sharp jumps): the 16KB/16MB latency knees are not TLB artifacts", len(knees))
	return r
}

// ampScores computes overflow/fit latency ratios across block sizes.
func ampScores(mk lens.MakeSystem, overflow, fit uint64, blockSizes []uint64,
	op mem.Op, opt lens.Options) *analysis.Series {
	s := &analysis.Series{Name: "amplification score",
		XLabel: "PC-Block size (bytes)", YLabel: "score"}
	scores := make([]float64, len(blockSizes))
	pool.ForEach(len(blockSizes), func(i int) {
		over := lens.PtrChase(mk, overflow, blockSizes[i], op, opt)
		in := lens.PtrChase(mk, fit, blockSizes[i], op, opt)
		scores[i] = analysis.AmplificationScore(over, in)
	})
	for i, bs := range blockSizes {
		s.Add(float64(bs), scores[i])
	}
	return s
}

func fig6a(sc Scale) *Result {
	r := &Result{ID: "fig6a", Title: "Read amplification score"}
	cfg := vansConfig(sc, 1, false)
	mk := mkVANS(sc, 1, false)
	rmw := ampScores(mk, cfg.NV.RMWBytes()*4, cfg.NV.RMWBytes()/2, sc.BlockSizes, mem.OpRead, sc.Opt)
	rmw.Name = "RMW Buf"
	ait := ampScores(mk, cfg.NV.AITBytes()*4, cfg.NV.AITBytes()/2, sc.BlockSizes, mem.OpRead, sc.Opt)
	ait.Name = "AIT Buf"
	r.Series = append(r.Series, rmw, ait)
	knees := analysis.ScoreKnees(sc.BlockSizes, rmw.Y, 0.05)
	r.AddNote("RMW-region score knees: %v (256B entry, then the 4KB AIT line)", knees)
	return r
}

func fig6b(sc Scale) *Result {
	r := &Result{ID: "fig6b", Title: "Write amplification score"}
	cfg := vansConfig(sc, 1, false)
	mk := mkVANS(sc, 1, false)
	wpqBytes := uint64(cfg.IMC.WPQSlots) * 64
	if wpqBytes == 0 {
		wpqBytes = 512
	}
	wpq := ampScores(mk, cfg.NV.LSQBytes(), wpqBytes/2, sc.BlockSizes, mem.OpWriteNT, sc.Opt)
	wpq.Name = "WPQ"
	lsq := ampScores(mk, cfg.NV.LSQBytes()*4, cfg.NV.LSQBytes()/2, sc.BlockSizes, mem.OpWriteNT, sc.Opt)
	lsq.Name = "LSQ"
	r.Series = append(r.Series, wpq, lsq)
	r.AddNote("LSQ write combining: score falls from %.2f at 64B toward 1 at the combine block", lsq.Y[0])
	return r
}

func fig7a(sc Scale) *Result {
	r := &Result{ID: "fig7a", Title: "Sequential write execution time"}
	sizes := analysis.LogSpace(1<<10, 16<<10, 2)
	one := &analysis.Series{Name: "1 DIMM", XLabel: "access size (bytes)", YLabel: "exec time (ns)"}
	six := &analysis.Series{Name: "6 DIMMs", XLabel: "access size (bytes)", YLabel: "exec time (ns)"}
	oneNs := make([]float64, len(sizes))
	sixNs := make([]float64, len(sizes))
	pool.ForEach(len(sizes), func(i int) {
		oneNs[i] = lens.SeqWriteTime(mkVANS(sc, 1, false), sizes[i], sc.Opt)
		sixNs[i] = lens.SeqWriteTime(mkVANS(sc, 6, true), sizes[i], sc.Opt)
	})
	for i, sz := range sizes {
		one.Add(float64(sz), oneNs[i])
		six.Add(float64(sz), sixNs[i])
	}
	r.Series = append(r.Series, one, six)
	at4k := one.YAt(4096) / six.YAt(4096)
	at16k := one.YAt(16<<10) / six.YAt(16<<10)
	r.AddNote("1-DIMM/6-DIMM time ratio: %.2fx at 4KB, %.2fx at 16KB (divergence beyond the 4KB interleave span)", at4k, at16k)
	return r
}

func fig7b(sc Scale) *Result {
	r := &Result{ID: "fig7b", Title: "Overwrite tail latency"}
	sys := vans.New(vansWearConfig(sc, 1, false))
	lats := lens.Overwrite(sys, 0, 256, sc.OverwriteIters)
	s := &analysis.Series{Name: "overwrite", XLabel: "iteration", YLabel: "latency (ns)"}
	for i, l := range lats {
		s.Add(float64(i), l)
	}
	r.Series = append(r.Series, s)
	ts := analysis.Tails(lats, 8)
	r.AddNote("tails every %.0f iterations (threshold %d); tail %.1fus vs normal %.2fus (%.0fx)",
		ts.MeanInterval(), sc.WearThreshold,
		ts.MeanTail/1000, ts.MeanNormal/1000, ts.MeanTail/ts.MeanNormal)
	return r
}

func fig7c(sc Scale) *Result {
	r := &Result{ID: "fig7c", Title: "Tail ratio vs overwrite region"}
	cfg := vansWearConfig(sc, 1, false)
	// The rate sensitivity needs the leaky-bucket wear counters: spread
	// writes accrue too slowly to trigger migration.
	iterNs := 700.0
	cfg.NV.Media.WearDecayCycles = uint64(float64(sc.WearThreshold) * iterNs * 1.6 * 1.333)
	s := &analysis.Series{Name: "tail ratio", XLabel: "overwrite region (bytes)",
		YLabel: "tails per KB written"}
	wearBlock := cfg.NV.Media.WearBlock
	regions := analysis.LogSpace(256, wearBlock*4, 4)
	totalBytes := uint64(sc.OverwriteIters) * 256 * 4
	rates := make([]float64, len(regions))
	pool.ForEach(len(regions), func(i int) {
		reg := regions[i]
		iters := int(totalBytes / reg)
		if iters < 40 {
			iters = 40
		}
		if iters > 4*sc.OverwriteIters {
			iters = 4 * sc.OverwriteIters
		}
		sys := vans.New(cfg)
		lats := lens.Overwrite(sys, 0, reg, iters)
		ts := analysis.Tails(lats, 8)
		rates[i] = float64(ts.Tails) / (float64(reg) * float64(iters) / 1024)
	})
	for i, reg := range regions {
		s.Add(float64(reg), rates[i])
	}
	r.Series = append(r.Series, s)
	small := s.Y[0]
	large := s.Y[len(s.Y)-1]
	r.AddNote("tail rate falls from %.4f to %.4f per KB once the region spans multiple %s wear blocks",
		small, large, mem.Bytes(wearBlock))
	return r
}

func fig7d(sc Scale) *Result {
	r := &Result{ID: "fig7d", Title: "TLB misses during overwrite"}
	cfg := vansConfig(sc, 1, false)
	sys := vans.New(cfg)
	core := cpu.New(cpu.DefaultConfig(), sys)
	// Overwrite via the CPU: NT stores + fence to one 256B region.
	var ins []cpu.Instr
	iters := sc.OverwriteIters
	if iters > 300 {
		iters = 300
	}
	for i := 0; i < iters; i++ {
		for l := uint64(0); l < 4; l++ {
			ins = append(ins, cpu.Instr{IsMem: true, NT: true, Addr: 4096 + l*64,
				Class: cpu.ClassWrite})
		}
		ins = append(ins, cpu.Instr{Fence: true, Class: cpu.ClassWrite})
	}
	st := core.Run(&cpu.SliceWorkload{Instrs: ins})
	r.AddNote("STLB misses over %d overwrite iterations: %d (stable, near zero — tails are not TLB artifacts)",
		iters, st.STLB.Misses)
	s := &analysis.Series{Name: "STLB MPKI", XLabel: "run", YLabel: "MPKI"}
	s.Add(1, st.STLBMPKI())
	r.Series = append(r.Series, s)
	return r
}

func fig4(sc Scale) *Result {
	r := &Result{ID: "fig4", Title: "LENS reverse-engineering of VANS"}
	cfg := vansWearConfig(sc, 1, false)
	mk := func() mem.System { return vans.New(cfg) }
	bp := lens.BufferProberConfig{
		Regions:      sc.Regions,
		BlockSizes:   sc.BlockSizes,
		KneeRatio:    1.25,
		MaxReadKnees: 2,
		Options:      sc.Opt,
	}
	pc := lens.PolicyProberConfig{
		OverwriteIters: sc.OverwriteIters,
		TailFactor:     8,
		Regions:        analysis.LogSpace(256, 2<<10, 2),
		SeqSizes:       analysis.LogSpace(1<<10, 8<<10, 2),
		Options:        sc.Opt,
	}
	c := lens.Characterize(mk, bp, pc)
	t := &analysis.Table{
		Title:   "Configured vs recovered parameters",
		Columns: []string{"parameter", "configured", "recovered"},
	}
	get := func(xs []uint64, i int) string {
		if i < len(xs) {
			return mem.Bytes(xs[i])
		}
		return "-"
	}
	t.AddRow("RMW buffer capacity", mem.Bytes(cfg.NV.RMWBytes()), get(c.Buffers.ReadBufferBytes, 0))
	t.AddRow("AIT buffer capacity", mem.Bytes(cfg.NV.AITBytes()), get(c.Buffers.ReadBufferBytes, 1))
	t.AddRow("RMW entry size", mem.Bytes(cfg.NV.RMWBlock), get(c.Buffers.ReadGranularity, 0))
	t.AddRow("AIT line size", mem.Bytes(cfg.NV.AITLine), get(c.Buffers.ReadGranularity, 1))
	t.AddRow("LSQ capacity", mem.Bytes(cfg.NV.LSQBytes()), get(c.Buffers.WriteBufferBytes, 0))
	t.AddRow("hierarchy", "inclusive", fmt.Sprintf("inclusive=%v", c.Buffers.InclusiveHierarchy))
	t.AddRow("migration interval", fmt.Sprintf("%d writes", cfg.NV.WearThreshold),
		fmt.Sprintf("%.0f iters", c.Policy.MigrationIntervalIters))
	t.AddRow("migration latency", fmt.Sprintf("%.0fus", cfg.NV.MigrationNs/1000),
		fmt.Sprintf("%.0fus", c.Policy.MigrationLatencyNs/1000))
	r.Tables = append(r.Tables, t)
	r.AddNote(c.Report())
	return r
}

// permCycle builds a deterministic single-cycle permutation.
func permCycle(nodes int) []int32 { return workload.Perm(nodes, 12345) }
