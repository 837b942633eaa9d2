package main

import (
	"strings"

	"repro/internal/obs"
)

// simCounts sums the simulated counters of a set of observability dumps
// (jobs or figures). They are exact: a change that only speeds the
// simulator up must leave every ratio built from them unchanged.
type simCounts struct {
	ops       int    // jobs or figures summed
	accesses  uint64 // client accesses completed by the simulated iMC
	wpqWaitNs uint64
	wpqWaitN  uint64
	clientWr  uint64
	aitHits   uint64
	aitMisses uint64
	rmwHits   uint64
	rmwMisses uint64
	dram      uint64
	mediaRd   uint64
	mediaWr   uint64
	migration uint64
}

// iMC counters are named imc<N>/..., DIMM counters dimm<N>/...; the Optane
// reference model's optane/... counters are left out.
func (s *simCounts) add(d *obs.Dump) {
	s.ops++
	for _, c := range d.Counters {
		name, v := c.Name, c.Value
		switch {
		case strings.HasPrefix(name, "imc") && (strings.HasSuffix(name, "/reads") || strings.HasSuffix(name, "/writes")):
			s.accesses += v
		case !strings.HasPrefix(name, "dimm"):
		case strings.HasSuffix(name, "/client_writes"):
			s.clientWr += v
		case strings.HasSuffix(name, "/ait_hits"):
			s.aitHits += v
		case strings.HasSuffix(name, "/ait_line_misses"), strings.HasSuffix(name, "/ait_sector_misses"):
			s.aitMisses += v
		case strings.HasSuffix(name, "/rmw_hits"):
			s.rmwHits += v
		case strings.HasSuffix(name, "/rmw_misses"):
			s.rmwMisses += v
		case strings.HasSuffix(name, "/dram/reads"), strings.HasSuffix(name, "/dram/writes"):
			s.dram += v
		case strings.HasSuffix(name, "/media/reads"):
			s.mediaRd += v
		case strings.HasSuffix(name, "/media/writes"):
			s.mediaWr += v
		case strings.HasSuffix(name, "/wear/migrations"):
			s.migration += v
		}
	}
	for _, h := range d.Histograms {
		if strings.HasPrefix(h.Name, "imc") && strings.HasSuffix(h.Name, "/wpq_wait_ns") {
			s.wpqWaitNs += h.Sum
			s.wpqWaitN += h.Count
		}
	}
}

// accessesOfDump returns the client accesses a dump's iMCs completed.
func accessesOfDump(d *obs.Dump) uint64 {
	var s simCounts
	s.add(d)
	return s.accesses
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer lists every per-layer metric and its unit, in BENCHMARK.json
// order. A traced run prints all of them; one reads 0 on a workload whose
// traced run puts no span around that layer's calls.
var perLayer = []struct{ name, unit string }{
	{"server.compile_us", "us"},
	{"server.encode_us", "us"},
	{"server.queued_ms_p99", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.http_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.warm_start_ratio", "ratio"},
	{"server.latency_samples", "count"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"workload.gen_ms", "ms"},
	{"cpu.new_ms", "ms"},
	{"cpu.new_alloc_mb", "MiB"},
	{"cpu.capture_ms", "ms"},
	{"vans.new_us", "us"},
	{"vans.new_allocs", "count"},
	{"mem.run_ms", "ms"},
	{"mem.allocs_per_access", "count"},
	{"sim.events_per_access", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"imc.wpq_wait_ns_mean", "ns"},
	{"nvdimm.lsq_merge_ratio", "ratio"},
	{"nvdimm.migrations", "count"},
	{"nvdimm.ait_miss_ratio", "ratio"},
	{"nvdimm.rmw_hit_ratio", "ratio"},
	{"dram.accesses_per_access", "count"},
	{"media.reads_per_access", "count"},
	{"media.writes_per_access", "count"},
	{"obs.dump_us", "us"},
	{"bottleneck.analyze_us", "us"},
	{"ckpt.snapshots", "count"},
	{"ckpt.sealed_mb", "MiB"},
	{"ckpt.encode_ms", "ms"},
	{"exp.fig4_cpu_s", "s"},
	{"exp.fig9e_cpu_s", "s"},
	{"exp.fig11d_cpu_s", "s"},
	{"exp.fig4_events", "count"},
	{"exp.fig9e_events", "count"},
	{"exp.fig11d_events", "count"},
	{"model_accuracy_pct", "%"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// spanLayers fills the host-time metrics of rebuilt jobs from span totals:
// each is a mean per call (per job for mem.run) of the span's self time.
func spanLayers(m map[string]float64, tot map[string]*layerTotal, jobs int, events, accesses uint64) {
	meanOf := func(name string, unit float64) float64 {
		lt := tot[name]
		if lt == nil || lt.n == 0 {
			return 0
		}
		return float64(lt.selfNs) / float64(lt.n) / unit
	}
	const us, ms = 1e3, 1e6
	m["server.compile_us"] = meanOf("server.compile", us)
	m["server.encode_us"] = meanOf("server.encode", us)
	m["workload.gen_ms"] = meanOf("workload.gen", ms)
	m["cpu.new_ms"] = meanOf("cpu.new", ms)
	m["cpu.capture_ms"] = meanOf("cpu.capture", ms)
	m["vans.new_us"] = meanOf("vans.new", us)
	m["obs.dump_us"] = meanOf("obs.dump", us)
	m["bottleneck.analyze_us"] = meanOf("bottleneck.analyze", us)
	m["ckpt.encode_ms"] = meanOf("ckpt.encode", ms)
	if lt := tot["cpu.new"]; lt != nil && lt.n > 0 {
		m["cpu.new_alloc_mb"] = float64(lt.selfBytes) / float64(lt.n) / (1 << 20)
	}
	if lt := tot["vans.new"]; lt != nil && lt.n > 0 {
		m["vans.new_allocs"] = float64(lt.selfObjs) / float64(lt.n)
	}
	if lt := tot["mem.run"]; lt != nil && jobs > 0 {
		m["mem.run_ms"] = float64(lt.selfNs) / float64(jobs) / ms
		m["mem.allocs_per_access"] = ratio(float64(lt.selfObjs), float64(accesses))
		m["sim.host_ns_per_event"] = ratio(float64(lt.selfNs), float64(events))
	}
	m["sim.events_per_access"] = ratio(float64(events), float64(accesses))
}

// simLayers fills the simulated metrics from summed dumps.
func simLayers(m map[string]float64, s simCounts) {
	acc := float64(s.accesses)
	m["imc.wpq_wait_ns_mean"] = ratio(float64(s.wpqWaitNs), float64(s.wpqWaitN))
	// Share of 64 B client writes that did not cost a media write of their
	// own: merged in the LSQ or combined into a 256 B media block.
	if s.clientWr > 0 {
		m["nvdimm.lsq_merge_ratio"] = 1 - float64(s.mediaWr)/float64(s.clientWr)
	}
	m["nvdimm.migrations"] = ratio(float64(s.migration), float64(s.ops))
	m["nvdimm.ait_miss_ratio"] = ratio(float64(s.aitMisses), float64(s.aitHits+s.aitMisses))
	m["nvdimm.rmw_hit_ratio"] = ratio(float64(s.rmwHits), float64(s.rmwHits+s.rmwMisses))
	m["dram.accesses_per_access"] = ratio(float64(s.dram), acc)
	m["media.reads_per_access"] = ratio(float64(s.mediaRd), acc)
	m["media.writes_per_access"] = ratio(float64(s.mediaWr), acc)
}
