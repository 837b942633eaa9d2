// Command perfbench is the repository's benchmark. It drives four
// workloads through the layers' public entry points (server.Runner,
// nvmserved's HTTP handler, exp.Run), checks every output against recorded
// digests, and prints end-to-end metrics from CPU time and exact counts, or
// with --trace 1 a per-layer breakdown from spans around calls into each
// layer. See README.md.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload chase-read --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

var workloads = map[string]func(*env) (*outcome, error){
	"chase-read":  chaseRead,
	"store-write": storeWrite,
	"serve-mix":   serveMix,
	"figures":     figures,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: chase-read, store-write, serve-mix or figures")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 15, "how long to keep repeating timed batches")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	rec := flag.String("record", "", "run every catalogue job and figure and write their digests to this file")
	flag.Parse()

	// At most two threads of load, as on the two-CPU machine the bounds
	// were set on.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *rec != "" {
		if err := record(*rec); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	want, err := loadDigests()
	if err != nil {
		fail(err)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, check: &checker{want: want}}
	out, err := run(e)
	if err != nil {
		fail(err)
	}

	res := result{
		Correct:   e.check.failed == 0,
		Attempted: e.check.attempted,
		Failed:    e.check.failed,
	}
	if e.traced {
		res.Metrics, err = layerMetrics(out)
		path := fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *name, *seed)
		if werr := writeSpans(path, out.spans); werr != nil {
			fail(werr)
		}
	} else {
		res.Metrics, err = endToEnd(out)
	}
	if err != nil {
		fail(err)
	}
	printRun(*name, e, out)
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEnd reduces the untraced batches to the end-to-end metrics: the
// median over batches of each per-batch figure.
func endToEnd(out *outcome) (map[string]metric, error) {
	var cpu, accPerCPU, allocMB, allocsM []float64
	for _, b := range out.plain {
		c := b.sec.cpu.Seconds()
		cpu = append(cpu, c)
		accPerCPU = append(accPerCPU, float64(b.accesses)/c)
		allocMB = append(allocMB, float64(b.sec.allocBytes)/(1<<20))
		allocsM = append(allocsM, float64(b.sec.allocObjs)/1e6)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"cpu_s":              {median(cpu), "s"},
		"accesses_per_cpu_s": {median(accPerCPU), "1/s"},
		"setup_s":            {median(out.setups), "s"},
		"peak_rss_mb":        {rss, "MiB"},
		"alloc_mb":           {median(allocMB), "MiB"},
		"allocs_M":           {median(allocsM), "M"},
	}
	return m, finite(m)
}

// layerMetrics adds the runtime and tracing-overhead figures to the layer
// metrics the workload computed, and fills every layer it never called
// with 0.
func layerMetrics(out *outcome) (map[string]metric, error) {
	var gcCPU, gcCycles, plainCPU, tracedCPU []float64
	for _, b := range out.plain {
		out.layers["jobs_per_s"] += float64(b.jobs) / b.sec.wall.Seconds() / float64(len(out.plain))
		gcCPU = append(gcCPU, b.sec.gcCPU)
		gcCycles = append(gcCycles, float64(b.sec.gcCycles))
		plainCPU = append(plainCPU, b.sec.cpu.Seconds())
	}
	for _, b := range out.traced {
		tracedCPU = append(tracedCPU, b.sec.cpu.Seconds())
	}
	out.layers["runtime.gc_cpu_s"] = mean(gcCPU)
	out.layers["runtime.gc_cycles"] = mean(gcCycles)
	overhead := 100 * (mean(tracedCPU) - mean(plainCPU)) / mean(plainCPU)
	out.layers["trace.overhead_pct"] = overhead
	out.note("tracing overhead: traced cpu_s %.4g vs untraced %.4g (%+.1f%%)",
		mean(tracedCPU), mean(plainCPU), overhead)

	m := map[string]metric{}
	for _, l := range perLayer {
		m[l.name] = metric{out.layers[l.name], l.unit}
	}
	for name := range out.layers {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("layer metric %s is not listed", name)
		}
	}
	return m, finite(m)
}

func finite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// printRun prints the per-batch figures and notes that precede the result
// line.
func printRun(name string, e *env, out *outcome) {
	fmt.Printf("perfbench: workload %s, seed %d, %d untraced and %d traced batches\n",
		name, e.seed, len(out.plain), len(out.traced))
	show := func(kind string, bs []batch) {
		for i, b := range bs {
			fmt.Printf("%s batch %d: %d ops, cpu %.3fs, wall %.3fs, %.1f MiB / %.3fM allocs, gc %d cycles %.3fs cpu\n",
				kind, i, b.jobs, b.sec.cpu.Seconds(), b.sec.wall.Seconds(),
				float64(b.sec.allocBytes)/(1<<20), float64(b.sec.allocObjs)/1e6, b.sec.gcCycles, b.sec.gcCPU)
		}
	}
	show("untraced", out.plain)
	show("traced", out.traced)
	setups := append([]float64(nil), out.setups...)
	sort.Float64s(setups)
	fmt.Printf("set-ups (CPU s): %.3f\n", setups)
	for _, n := range out.notes {
		fmt.Println(n)
	}
}

func writeSpans(path string, ts []*tracer) error {
	if len(ts) == 0 {
		return nil
	}
	// One file: shift each tracer's parent indices past the spans before it.
	all := newTracer(false)
	for _, t := range ts {
		base := len(all.spans)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all.spans = append(all.spans, s)
		}
	}
	return all.write(path)
}
