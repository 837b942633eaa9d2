// Command tracegen captures the post-cache memory trace of a workload
// running on the CPU substrate, writing it in the text trace format for
// later replay with `vans -replay` (the paper's LENS-capture ->
// VANS-trace-mode flow).
//
// Usage:
//
//	tracegen -workload Redis -instructions 50000 > redis.trace
//	tracegen -workload mcf -out mcf.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vans"
	"repro/internal/workload"
)

func main() {
	var (
		name         = flag.String("workload", "Redis", "cloud workload (FIO-write, YCSB, TPCC, HashMap, Redis, LinkedList) or SPEC bench name (mcf, lbm, ...)")
		instructions = flag.Int("instructions", 50000, "instructions to execute")
		seed         = flag.Uint64("seed", 1, "generator seed")
		footprintStr = flag.String("footprint", "16M", "working set size (accepts K/M/G suffixes)")
		out          = flag.String("out", "", "output path (default stdout)")
	)
	flag.Parse()

	footprint, err := units.ParseBytes(*footprintStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var w cpu.Workload
	if b, ok := workload.SPECBenchByName(*name); ok {
		b.FootprintMB = float64(footprint) / (1 << 20)
		w = workload.SPEC(b, *instructions, *seed)
	} else {
		w = workload.Cloud(*name, workload.CloudOptions{
			Instructions: *instructions,
			Seed:         *seed,
			Footprint:    footprint,
		})
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}

	cfg := vans.DefaultConfig()
	cfg.NV.Media.Capacity = 256 << 20
	sys := vans.New(cfg)
	col := trace.NewCollector(sys)
	core := cpu.New(cpu.DefaultConfig(), col)
	st := core.Run(w)

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		dst = f
	}

	tw := trace.NewWriter(dst)
	for _, rec := range col.Records {
		if err := tw.Write(rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "captured %d memory accesses from %d instructions (IPC %.2f)\n",
		len(col.Records), st.Instructions, st.IPC(2.2))
}
