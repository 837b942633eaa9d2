// Command vans replays a memory trace (or a built-in access pattern)
// through the VANS simulator in trace mode and prints latency, bandwidth,
// and DIMM-internal statistics. With -json it prints the same result payload
// the nvmserved service returns, produced by the same run entry point.
//
// Usage:
//
//	vans -replay accesses.txt [-dimms 6 -interleaved]
//	vans -pattern chase -region 1M
//	vans -pattern seq -bytes 1M -op store-nt -json
//	vans -pattern seq -op store-nt -fault '{"power_fail_cycle":4000}' -json
//	vans -pattern seq -op store -trace out.json   # Chrome trace for Perfetto
//	vans -pattern chase -stats                    # full observability table
//	vans -pattern seq -op store-nt -explain       # bottleneck verdict
//
// Checkpoint/restore: -ckpt-every N cuts a sealed snapshot at every Nth
// access barrier; -checkpoint FILE keeps the latest snapshot on disk, and
// -restore FILE resumes a later invocation from it. The resumed run is
// byte-identical to an uninterrupted one, so a run killed mid-stream loses
// only the work since the last barrier:
//
//	vans -pattern chase -region 256K -ckpt-every 1000 -checkpoint snap.ckpt -json
//	vans -pattern chase -region 256K -ckpt-every 1000 -restore snap.ckpt -json
//
// The restoring invocation must repeat the same workload flags (including
// -ckpt-every): snapshots are stamped with the canonical plan hash and refuse
// to resume a different plan.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/server"
)

func fatalf(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		replayFile  = flag.String("replay", "", "input trace file to replay (text format: cycle op hexaddr size)")
		pattern     = flag.String("pattern", "", "built-in pattern: chase or seq")
		region      = flag.String("region", "1M", "chase region size")
		total       = flag.String("bytes", "1M", "seq total bytes")
		op          = flag.String("op", "load", "seq op: load, store, store-nt")
		dimms       = flag.Int("dimms", 1, "number of NVDIMMs")
		interleaved = flag.Bool("interleaved", false, "4KB multi-DIMM interleaving")
		window      = flag.Int("window", 10, "outstanding requests")
		seed        = flag.Uint64("seed", 1, "workload seed")
		jsonOut     = flag.Bool("json", false, "print the result as JSON (the nvmserved payload)")
		faultJSON   = flag.String("fault", "", `fault spec as JSON, e.g. '{"poison_rate":0.01}' or '{"power_fail_cycle":4000}'`)
		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON file (open in Perfetto / chrome://tracing)")
		explain     = flag.Bool("explain", false, "print the bottleneck verdict: dominant stage, time attribution, named regime")
		stats       = flag.Bool("stats", false, "print the full observability table (every counter and stage histogram)")
		statsJSON   = flag.Bool("stats-json", false, "print the observability dump as JSON")
		ckptEvery   = flag.Int("ckpt-every", 0, "checkpoint every N accesses at engine-idle barriers (0 disables)")
		ckptOut     = flag.String("checkpoint", "", "write each barrier snapshot to FILE (the file always holds the latest barrier)")
		restoreFile = flag.String("restore", "", "resume from a snapshot FILE written by -checkpoint (same workload flags required)")
	)
	flag.Parse()

	spec := server.JobSpec{
		Config:    server.ConfigSpec{DIMMs: *dimms, Interleaved: *interleaved},
		Window:    *window,
		Seed:      *seed,
		Trace:     *traceOut != "",
		CkptEvery: *ckptEvery,
	}
	if *faultJSON != "" {
		var fs fault.Spec
		dec := json.NewDecoder(strings.NewReader(*faultJSON))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fs); err != nil {
			fatalf(2, "vans: -fault: %v", err)
		}
		spec.Fault = &fs
	}
	switch {
	case *replayFile != "":
		text, err := os.ReadFile(*replayFile)
		if err != nil {
			fatalf(1, "%v", err)
		}
		spec.Workload = server.WorkloadSpec{Kind: server.KindTrace, Trace: string(text)}
	case *pattern == "chase":
		spec.Workload = server.WorkloadSpec{Kind: server.KindChase, Region: *region}
	case *pattern == "seq":
		spec.Workload = server.WorkloadSpec{Kind: server.KindSeq, Bytes: *total, Op: *op}
	case *pattern != "":
		fatalf(2, "unknown pattern %q (want chase or seq)", *pattern)
	default:
		fmt.Fprintln(os.Stderr, "vans: need -replay FILE or -pattern chase|seq")
		flag.Usage()
		os.Exit(2)
	}

	var cio *server.CkptIO
	if *ckptOut != "" || *restoreFile != "" {
		if *ckptEvery <= 0 {
			fatalf(2, "vans: -checkpoint and -restore require -ckpt-every")
		}
		cio = &server.CkptIO{}
		if *restoreFile != "" {
			snap, err := os.ReadFile(*restoreFile)
			if err != nil {
				fatalf(1, "vans: -restore: %v", err)
			}
			cio.Resume = snap
		}
		if *ckptOut != "" {
			out := *ckptOut
			cio.Sink = func(idx int, snap []byte) error {
				// Atomic replace: a crash mid-write must not destroy the last
				// good snapshot — that is the whole point of having one.
				tmp := out + ".tmp"
				if err := os.WriteFile(tmp, snap, 0o644); err != nil {
					return err
				}
				return os.Rename(tmp, out)
			}
		}
	}

	p, err := spec.Compile()
	if err != nil {
		fatalf(2, "vans: %v", err)
	}
	res, err := server.NewRunner().RunAttemptCkpt(context.Background(), p, 0, cio)
	if err != nil {
		fatalf(2, "vans: %v", err)
	}
	if cio != nil {
		if cio.ResumedFrom > 0 {
			fmt.Fprintf(os.Stderr, "vans: resumed from access %d (snapshot %s)\n", cio.ResumedFrom, *restoreFile)
		}
		if cio.Saves > 0 {
			fmt.Fprintf(os.Stderr, "vans: wrote %d barrier snapshot(s), latest in %s\n", cio.Saves, *ckptOut)
		}
	}

	if *traceOut != "" {
		lt := res.Trace()
		if lt == nil {
			fatalf(1, "vans: run produced no trace")
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf(1, "%v", err)
		}
		if err := lt.WriteChromeTrace(f); err != nil {
			fatalf(1, "vans: writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf(1, "%v", err)
		}
		if n := lt.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "vans: trace truncated: %d events dropped past the capture limit\n", n)
		}
		fmt.Fprintf(os.Stderr, "vans: wrote %d trace events to %s (open in https://ui.perfetto.dev)\n",
			len(lt.Events()), *traceOut)
	}

	if *explain {
		if res.Verdict == nil {
			// Power-fail runs carry no dump, hence no attribution to explain.
			fatalf(1, "vans: run produced no verdict")
		}
		fmt.Print(res.Verdict.String())
		return
	}

	if (*stats || *statsJSON) && res.Obs == nil {
		// Power-fail runs report only the crash check; they carry no dump.
		fatalf(1, "vans: run produced no observability dump")
	}
	if *statsJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Obs); err != nil {
			fatalf(1, "%v", err)
		}
		return
	}
	if *stats {
		fmt.Print(res.Obs.Table())
		return
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf(1, "%v", err)
		}
		return
	}

	if res.Crash != nil {
		c := res.Crash
		fmt.Printf("power fail at cycle %d (run ends at %d)\n", c.CutCycle, c.EndCycle)
		fmt.Printf("writes:          %d accepted (durable), %d lost with power\n", c.AcceptedWrites, c.LostWrites)
		fmt.Printf("durable lines:   %d\n", c.DurableLines)
		if c.Consistent {
			fmt.Println("crash check:     CONSISTENT (recovered image matches the ADR contract)")
		} else {
			fmt.Printf("crash check:     INCONSISTENT (%d mismatches)\n", len(c.Mismatches))
			for _, m := range c.Mismatches {
				fmt.Printf("  line 0x%x: %s (%s)\n", m.Line, m.Kind, m.Detail)
			}
		}
		return
	}

	fmt.Printf("accesses:        %d (%d bytes)\n", res.Accesses, res.BytesMoved)
	fmt.Printf("elapsed:         %.2f us (+%.2f us drain)\n", res.ElapsedNs/1000, res.DrainNs/1000)
	fmt.Printf("avg latency/CL:  %.1f ns\n", res.AvgLatencyNs)
	fmt.Printf("bandwidth:       %.2f GB/s\n", res.BandwidthGBs)
	for i, d := range res.Vans.DIMMs {
		fmt.Printf("DIMM %d: reads=%d writes=%d lsqMerge=%d rmwHit=%d/%d aitHit=%d/%d media R/W=%d/%d migrations=%d\n",
			i, d.ClientReads, d.ClientWrites, d.LSQMerges,
			d.RMWHits, d.RMWHits+d.RMWMisses,
			d.AITHits, d.AITHits+d.AITLineMiss+d.AITSectorMiss,
			d.MediaReads, d.MediaWrites, d.Migrations)
	}
}
