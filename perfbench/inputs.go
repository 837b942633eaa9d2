package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/server"
)

// Every job a workload can generate comes from a fixed, finite catalogue,
// so the digest file can hold the expected canonical bytes of each one. The
// benchmark seed only chooses which catalogue entries a run uses and in what
// order; the program sees nothing but the generated specs.

// rngFor returns a generator for one named stream of the benchmark seed, so
// that adding a stream never shifts the draws of another.
func rngFor(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// job is one generated input: its spec, the compiled plan and the plan hash
// that keys its digest.
type job struct {
	spec server.JobSpec
	plan *server.Plan
	key  string
	body []byte // JSON request body (serve-mix)
}

func newJob(spec server.JobSpec) (job, error) {
	p, err := spec.Compile()
	if err != nil {
		return job{}, fmt.Errorf("compiling %+v: %w", spec, err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return job{}, err
	}
	return job{spec: spec, plan: p, key: p.Hash(), body: body}, nil
}

func newJobs(specs []server.JobSpec) ([]job, error) {
	out := make([]job, len(specs))
	for i, s := range specs {
		j, err := newJob(s)
		if err != nil {
			return nil, err
		}
		out[i] = j
	}
	return out, nil
}

// pick returns k distinct draws from [0, n) in random order.
func pick(r *rand.Rand, n, k int) []int {
	return r.Perm(n)[:k]
}

// chase-read: dependent pointer chases over 64 MB, four times the 16 MB AIT
// buffer, so most accesses miss the AIT.
const (
	chasePool  = 32 // chase seeds 1..chasePool
	chaseBatch = 8
)

func chaseSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Workload: server.WorkloadSpec{Kind: server.KindChase, Region: "64M", MaxSteps: 20000},
		Seed:     seed,
	}
}

// chaseInputs returns the untimed warm-up job and the batch.
func chaseInputs(seed uint64) (warm server.JobSpec, batch []server.JobSpec) {
	return fromPool(seed, "chase-read", chasePool, chaseBatch, chaseSpec)
}

// fromPool draws batch+1 distinct seeds from 1..pool: one job of spec for
// each of the batch and one for the set-up's warm-up.
func fromPool(seed uint64, stream string, pool, batch int, spec func(uint64) server.JobSpec) (warm server.JobSpec, jobs []server.JobSpec) {
	idx := pick(rngFor(seed, stream), pool, batch+1)
	for _, i := range idx[:batch] {
		jobs = append(jobs, spec(uint64(i+1)))
	}
	return spec(uint64(idx[batch] + 1)), jobs
}

// store-write: non-temporal sequential stores with a low wear threshold and
// periodic checkpoints, so the WPQ, LSQ, wear-leveler and snapshot encoder
// all work. The config seed picks wear-leveling partners.
const (
	storePool  = 16 // config seeds 1..storePool
	storeBatch = 4
)

func storeSpec(cfgSeed uint64) server.JobSpec {
	return server.JobSpec{
		Config:    server.ConfigSpec{WearThreshold: 50, Seed: cfgSeed},
		Workload:  server.WorkloadSpec{Kind: server.KindSeq, Bytes: "4M", Op: "store-nt"},
		CkptEvery: 4096,
	}
}

func storeInputs(seed uint64) (warm server.JobSpec, batch []server.JobSpec) {
	return fromPool(seed, "store-write", storePool, storeBatch, storeSpec)
}

// serve-mix: short jobs of many shapes, each shape in serveVariants seeds.
// A batch takes servePicked variants of every shape, a few warm groups whose
// jobs share one warmup prefix, and exact repeats of recent jobs.
const (
	serveVariants = 32 // job seeds 1..serveVariants per shape
	servePicked   = 24
	warmGroups    = 8 // warm-group seeds 1..warmGroups
	warmPicked    = 3
	serveRepeats  = 250
	// Repeats copy a job between repeatMin and repeatMin+repeatSpan places
	// earlier: far enough back that it has finished, near enough that the
	// default 256-entry result cache still holds it.
	repeatMin  = 8
	repeatSpan = 56
)

func serveShapes() []server.WorkloadSpec {
	var out []server.WorkloadSpec
	for _, region := range []string{"64K", "128K", "256K", "512K", "1M"} {
		for _, steps := range []int{500, 1000, 2000} {
			out = append(out, server.WorkloadSpec{Kind: server.KindChase, Region: region, MaxSteps: steps})
		}
	}
	for _, bytes := range []string{"64K", "128K"} {
		for _, op := range []string{"load", "store", "store-nt"} {
			out = append(out, server.WorkloadSpec{Kind: server.KindSeq, Bytes: bytes, Op: op})
		}
	}
	for _, name := range []string{"Redis", "YCSB", "mcf"} {
		for _, n := range []int{500, 1000, 2000} {
			out = append(out, server.WorkloadSpec{Kind: server.KindCloud, Name: name, Instructions: n})
		}
	}
	return out
}

// warmMains are the main workloads of one warm group; every job of the
// group shares warmupSpec and the group's seed, hence one warm hash.
func warmMains() []server.WorkloadSpec {
	var out []server.WorkloadSpec
	for _, region := range []string{"64K", "128K", "256K", "512K", "1M"} {
		for _, steps := range []int{500, 2000} {
			out = append(out, server.WorkloadSpec{Kind: server.KindChase, Region: region, MaxSteps: steps})
		}
	}
	return out
}

var warmupSpec = server.WorkloadSpec{Kind: server.KindChase, Region: "1M", MaxSteps: 2000}

func warmSpec(group uint64, main server.WorkloadSpec) server.JobSpec {
	w := warmupSpec
	return server.JobSpec{Workload: main, Warmup: &w, Seed: 1000 + group}
}

// serveInputs returns the set-up round (one unused variant of every shape)
// and the batch's request list.
func serveInputs(seed uint64) (warm, batch []server.JobSpec) {
	r := rngFor(seed, "serve-mix")
	var distinct []server.JobSpec
	for _, shape := range serveShapes() {
		idx := pick(r, serveVariants, servePicked+1)
		for _, i := range idx[:servePicked] {
			distinct = append(distinct, server.JobSpec{Workload: shape, Seed: uint64(i + 1)})
		}
		warm = append(warm, server.JobSpec{Workload: shape, Seed: uint64(idx[servePicked] + 1)})
	}
	for _, g := range pick(r, warmGroups, warmPicked) {
		for _, m := range warmMains() {
			distinct = append(distinct, warmSpec(uint64(g+1), m))
		}
	}
	r.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })

	after := make(map[int]bool, serveRepeats)
	for _, i := range pick(r, len(distinct)-repeatMin-repeatSpan, serveRepeats) {
		after[i+repeatMin+repeatSpan] = true
	}
	for i, s := range distinct {
		batch = append(batch, s)
		if after[i] {
			batch = append(batch, distinct[i-repeatMin-r.IntN(repeatSpan)])
		}
	}
	return warm, batch
}

// figures: the three figures each pass regenerates, and the untimed warm-up
// figure of the set-up.
var (
	figureIDs  = []string{"fig4", "fig9e", "fig11d"}
	warmFigure = "fig6a"
)

func figureOrder(seed uint64) []string {
	r := rngFor(seed, "figures")
	out := make([]string, len(figureIDs))
	for i, j := range r.Perm(len(figureIDs)) {
		out[i] = figureIDs[j]
	}
	return out
}

// catalogue lists every job spec any seed can generate, for --record.
func catalogue() []server.JobSpec {
	var out []server.JobSpec
	for s := uint64(1); s <= chasePool; s++ {
		out = append(out, chaseSpec(s))
	}
	for s := uint64(1); s <= storePool; s++ {
		out = append(out, storeSpec(s))
	}
	for _, shape := range serveShapes() {
		for v := uint64(1); v <= serveVariants; v++ {
			out = append(out, server.JobSpec{Workload: shape, Seed: v})
		}
	}
	for g := uint64(1); g <= warmGroups; g++ {
		for _, m := range warmMains() {
			out = append(out, warmSpec(g, m))
		}
	}
	return out
}
