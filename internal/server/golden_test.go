package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/fault"
)

// hotspotTrace builds an overwrite loop hammering one 64B line with fences,
// so a tiny wear threshold forces block migrations.
func hotspotTrace(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d store 0x0 64\n%d mfence 0x0 0\n", 2*i, 2*i+1)
	}
	return b.String()
}

// TestGoldenVerdicts pins the three canonical workload->regime mappings from
// the paper's attribution story.
func TestGoldenVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		spec   JobSpec
		regime string
	}{
		{
			// Non-temporal write burst: latency accumulates waiting in the
			// WPQ/LSQ drain path.
			name: "write-burst",
			spec: JobSpec{
				Workload: WorkloadSpec{Kind: KindSeq, Bytes: "256K", Op: "store-nt"},
				Window:   10, Seed: 1,
			},
			regime: bottleneck.RegimeWPQ,
		},
		{
			// Pointer chase over a footprint far past AIT coverage: nearly
			// every access misses the on-DIMM address-translation buffer.
			name: "ait-miss-chase",
			spec: JobSpec{
				Config:   ConfigSpec{MediaBytes: "256M"},
				Workload: WorkloadSpec{Kind: KindChase, Region: "64M", MaxSteps: 20000},
				Window:   10, Seed: 1,
			},
			regime: bottleneck.RegimeAIT,
		},
		{
			// Hotspot overwrite loop with a tiny wear threshold: migration
			// stalls dominate the attributed time.
			name: "wear-hotspot",
			spec: JobSpec{
				Config:   ConfigSpec{WearThreshold: 50},
				Workload: WorkloadSpec{Kind: KindTrace, Trace: hotspotTrace(200)},
				Window:   10, Seed: 1,
			},
			regime: bottleneck.RegimeWear,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.spec.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, err := NewRunner().RunAttemptCkpt(context.Background(), p, 0, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Verdict == nil {
				t.Fatal("run produced no verdict")
			}
			if res.Verdict.Regime != tc.regime {
				t.Fatalf("regime = %q, want %q\n%s", res.Verdict.Regime, tc.regime, res.Verdict)
			}
		})
	}
}

// goldenPath pins the canonical result bytes of every figureShapes job plus
// goldenSpecs: one "<name> sha256=<hex>" line each, recorded on linux/amd64.
// There is deliberately no update flag: a mismatch prints the line the file
// should hold, and each edit of the file is made by hand, so it shows up in
// review.
const goldenPath = "testdata/golden.txt"

// goldenSpecs are the shapes pinned beside figureShapes: the 6-DIMM
// interleaved store stream, a power-fail crash check, a transient-fault
// retry, a chase behind a warmup prefix, and a wear-migrating store stream
// cut by checkpoint barriers.
var goldenSpecs = map[string]JobSpec{
	// A chase forked from a warmup prefix's barrier, as serve-mix's warm
	// groups run.
	"warmup": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "256K", MaxSteps: 1000},
		Warmup:   &WorkloadSpec{Kind: "chase", Region: "1M", MaxSteps: 2000},
		Seed:     1001,
	},
	// perfbench's store-write in miniature: non-temporal stores with a low
	// wear threshold, so blocks migrate between checkpoint barriers.
	"store-wear-ckpt": {
		Config:    ConfigSpec{WearThreshold: 50, MediaBytes: "16M"},
		Workload:  WorkloadSpec{Kind: "seq", Bytes: "256K", Op: "store-nt"},
		Seed:      7,
		CkptEvery: 1024,
	},
	"interleaved": {
		Config:   ConfigSpec{DIMMs: 6, Interleaved: true, MediaBytes: "8M"},
		Workload: WorkloadSpec{Kind: "seq", Bytes: "96K", Op: "store-nt"},
		Window:   8, Seed: 7,
	},
	// The crash-consistency checker replays to a cut cycle, recovers and
	// reports instead of timing.
	"power-fail": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "seq", Bytes: "64K", Op: "store"},
		Window:   4, Seed: 7,
		Fault: &fault.Spec{PowerFailCycle: 40000},
	},
	// Transient poison fires on attempt 0 only, so attempt 1 succeeds.
	"transient-poison": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "64K", MaxSteps: 900},
		Seed:     7,
		Fault:    &fault.Spec{PoisonRate: 1, PoisonTransient: true},
	},
}

// TestCanonicalBytesGolden runs every pinned shape once (attempt 1) and
// checks that the result carries its plan hash and that its canonical bytes
// hash to the recorded line.
func TestCanonicalBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which moves the last
		// digits of float fields.
		t.Skipf("golden recorded on amd64, not comparing on %s", runtime.GOARCH)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	specs := map[string]JobSpec{}
	for name, spec := range figureShapes {
		specs[name] = spec
	}
	for name, spec := range goldenSpecs {
		specs[name] = spec
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			p, err := spec.Compile()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			res, err := NewRunner().RunAttempt(context.Background(), p, 1)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Hash != p.Hash() {
				t.Fatalf("result hash %s != plan hash %s", res.Hash, p.Hash())
			}
			got := fmt.Sprintf("%s sha256=%x", name, sha256.Sum256(res.Canonical()))
			if rec, ok := want[name]; !ok {
				t.Errorf("golden: no line for %s; expected line:\n%s", name, got)
			} else if rec != got {
				t.Errorf("golden: canonical bytes moved\nrecorded: %s\nexpected: %s\ncanonical: %s",
					rec, got, res.Canonical())
			}
		})
	}
	for name, rec := range want {
		if _, ok := specs[name]; !ok {
			t.Errorf("golden: stale line for unknown shape %s:\n%s", name, rec)
		}
	}
}
