package exp

import (
	"runtime"
	"testing"

	"repro/internal/pool"
)

// TestParallelByteIdentical is the determinism contract of the parallel
// harness: for every registered experiment, rendered output under a parallel
// worker pool must be byte-identical to a sequential (-j 1) run. Every sweep
// point builds a fresh system from fixed seeds and writes to its own slot,
// so worker count and completion order must not leak into results. The
// sequential pass is also checked against the golden lock (golden_test.go).
func TestParallelByteIdentical(t *testing.T) {
	// Trim the work per experiment further than testScale: this test pays
	// for every experiment twice (sequential then parallel), and parity is
	// about scheduling, not statistics.
	sc := testScale()
	sc.Opt.MaxSteps = 1200
	sc.OverwriteIters = 150
	sc.Instructions = 15000
	ids := IDs()

	prev := pool.SetWorkers(1)
	seq := RunMany(ids, sc)
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	pool.SetWorkers(workers)
	par := RunMany(ids, sc)
	pool.SetWorkers(prev)

	checkGolden(t, seq)
	for i, id := range ids {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Errorf("%s: seq err=%v par err=%v", id, seq[i].Err, par[i].Err)
			continue
		}
		if s, p := seq[i].Res.String(), par[i].Res.String(); s != p {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel (%d workers) ---\n%s",
				id, s, workers, p)
		}
	}
}

// TestRunManyCollectsErrors checks that one failing id does not abort the
// batch and that outcomes keep input order.
func TestRunManyCollectsErrors(t *testing.T) {
	outs := RunMany([]string{"fig7b", "nonsense", "fig7c"}, testScale())
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if outs[0].Err != nil || outs[0].ID != "fig7b" || outs[0].Res == nil {
		t.Fatalf("outcome 0 = %+v", outs[0])
	}
	if outs[1].Err == nil {
		t.Fatal("unknown id did not error")
	}
	if outs[2].Err != nil || outs[2].Res == nil {
		t.Fatalf("outcome 2 = %+v", outs[2])
	}
}
