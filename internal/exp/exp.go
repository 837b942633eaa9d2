// Package exp regenerates every table and figure of the paper's evaluation:
// each experiment builds the systems it needs, drives the LENS
// microbenchmarks or the CPU substrate over them, and returns the same
// rows/series the paper reports. Experiments run at two scales: Quick
// (structure capacities divided so unit tests and benchmarks finish in
// seconds) and Paper (the true 16KB/16MB/512B/4KB sizes).
package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bottleneck"
	"repro/internal/lens"
	"repro/internal/obs"
	"repro/internal/optane"
	"repro/internal/pool"
)

// Result is one regenerated artifact.
type Result struct {
	ID     string
	Title  string
	Series []*analysis.Series
	Tables []*analysis.Table
	// Notes carries the headline observations ("who wins, by what factor").
	Notes []string
}

// AddNote appends a formatted headline observation.
func (r *Result) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale sizes an experiment run.
type Scale struct {
	Name string
	// Divisor shrinks the RMW/AIT structures (1 = paper size).
	Divisor int
	// Regions for pointer-chasing sweeps.
	Regions []uint64
	// BlockSizes for amplification sweeps.
	BlockSizes []uint64
	// Opt bounds the microbenchmark runs.
	Opt lens.Options
	// OverwriteIters for the tail-latency tests.
	OverwriteIters int
	// WearThreshold and MigrationNs for wear-leveling runs.
	WearThreshold uint64
	MigrationNs   float64
	// Instructions per CPU-driven run.
	Instructions int
	// Footprint for cloud workloads.
	CloudFootprint uint64
	// Obs, when non-nil, is the observability context every system the
	// experiment builds registers into (each vans/optane instance creates its
	// own child, so one context serves parallel experiments). Results stay
	// byte-identical: registration and counting never alter simulated timing.
	Obs *obs.Obs
}

// QuickScale shrinks structures 64x: the RMW knee lands at 256B..4KB and the
// AIT knee at 256KB, so sweeps finish in seconds while preserving every
// shape. Tests and benchmarks default to it.
func QuickScale() Scale {
	return Scale{
		Name:           "quick",
		Divisor:        64,
		Regions:        analysis.LogSpace(256, 2<<20, 2),
		BlockSizes:     analysis.LogSpace(64, 8<<10, 2),
		Opt:            lens.Options{MaxSteps: 3000, WarmPasses: 1, Window: 8, Seed: 42},
		OverwriteIters: 400,
		WearThreshold:  50,
		MigrationNs:    30000,
		Instructions:   60000,
		CloudFootprint: 8 << 20,
	}
}

// PaperScale uses the true structure sizes and the paper's sweep ranges.
// Full runs take minutes per figure.
func PaperScale() Scale {
	return Scale{
		Name:           "paper",
		Divisor:        1,
		Regions:        analysis.LogSpace(256, 128<<20, 2),
		BlockSizes:     analysis.LogSpace(64, 8<<10, 2),
		Opt:            lens.Options{MaxSteps: 60000, WarmPasses: 1, Window: 10, Seed: 42},
		OverwriteIters: 60000,
		WearThreshold:  14000,
		MigrationNs:    55000,
		Instructions:   2000000,
		CloudFootprint: 256 << 20,
	}
}

// ScaleNames lists the named scales in CLI order.
func ScaleNames() []string { return []string{"quick", "paper"} }

// ScaleByName resolves the "-scale" vocabulary shared by cmd/lens,
// cmd/experiments, and nvmserved sweep requests.
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "quick":
		return QuickScale(), true
	case "paper":
		return PaperScale(), true
	}
	return Scale{}, false
}

// Experiment is a registered artifact generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale) *Result
}

var registry []Experiment

func register(id, title string, run func(sc Scale) *Result) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// IDs lists every registered experiment in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes one experiment by id at the given scale.
func Run(id string, sc Scale) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return e.Run(sc), nil
}

// Outcome pairs one experiment id with its result or error.
type Outcome struct {
	ID      string
	Res     *Result
	Err     error
	Elapsed time.Duration
	// Digest summarizes the run's observability counters (events fired,
	// media traffic, migrations, peak queue depth).
	Digest obs.Digest
	// Verdict is the bottleneck analysis over the experiment's aggregated
	// observability dump (nil when the experiment recorded no stage time).
	Verdict *bottleneck.Verdict
}

// RunMany executes the given experiments across the pool's worker budget and
// returns outcomes in input order. Every experiment builds its own systems
// from fixed seeds, so concurrent runs are byte-identical to sequential ones.
// Each experiment gets a private observability context, summarized into its
// outcome's Digest.
func RunMany(ids []string, sc Scale) []Outcome {
	out := make([]Outcome, len(ids))
	pool.ForEach(len(ids), func(i int) {
		scRun := sc
		scRun.Obs = obs.New()
		start := time.Now()
		r, err := Run(ids[i], scRun)
		out[i] = Outcome{ID: ids[i], Res: r, Err: err,
			Elapsed: time.Since(start), Digest: scRun.Obs.Digest(),
			Verdict: bottleneck.Analyze(scRun.Obs.Dump())}
	})
	return out
}

// refParams returns Optane reference parameters scaled to match the scaled
// VANS structures so quick-scale comparisons stay apples to apples. Wear
// tail parameters stay at their defaults; wear-focused experiments override
// them explicitly (refWearParams).
func refParams(sc Scale) optane.Params {
	p := optane.DefaultParams()
	if sc.Divisor > 1 {
		// Match the scaled VANS structures exactly (see vansConfig) so
		// validation compares knees at the same positions.
		rmwEntries := uint64(max(4, 64/sc.Divisor*4))
		aitEntries := uint64(max(8, 4096/sc.Divisor))
		p.RMWBytes = rmwEntries * 256
		p.AITBytes = aitEntries * 4096
	}
	return p
}

// refWearParams additionally scales the wear-tail behavior to the scale's
// threshold (for the overwrite/migration experiments). The reference counts
// 64B stores while VANS counts combined 256B media writes, hence the 4x.
func refWearParams(sc Scale) optane.Params {
	p := refParams(sc)
	p.TailEvery = sc.WearThreshold * 4
	p.TailStallNs = sc.MigrationNs
	return p
}

// topK returns the k highest values' indices of a map (ties broken by key).
func topK(counts map[uint64]uint64, k int) []uint64 {
	type kv struct {
		key uint64
		n   uint64
	}
	all := make([]kv, 0, len(counts))
	for a, n := range counts {
		all = append(all, kv{a, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]uint64, len(all))
	for i, e := range all {
		out[i] = e.key
	}
	return out
}
