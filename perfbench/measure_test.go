package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, err := percentileOf(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	if p.value != 990 || p.n != 1000 || p.beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 of 1000 beyond", p)
	}
	if _, err := percentileOf(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	// Four samples, as when a p90 was taken over four figure jobs.
	if _, err := percentileOf(xs[:4], 0.90); err == nil {
		t.Fatal("p90 of 4 samples must be refused")
	}
	if _, err := percentileOf(xs[:20], 0.50); err != nil {
		t.Fatalf("p50 of 20 samples leaves 10 beyond it: %v", err)
	}
}

func TestServeInputsAreSeededAndStratified(t *testing.T) {
	warm1, batch1 := serveInputs(7)
	_, batch2 := serveInputs(7)
	_, other := serveInputs(8)
	if len(batch1) != 1000 || len(warm1) != len(serveShapes()) {
		t.Fatalf("batch %d jobs, set-up %d; want 1000 and one per shape", len(batch1), len(warm1))
	}
	same, differs := true, false
	for i := range batch1 {
		a, b, c := batch1[i], batch2[i], other[i]
		if a.Seed != b.Seed || a.Workload != b.Workload {
			same = false
		}
		if a.Seed != c.Seed || a.Workload != c.Workload {
			differs = true
		}
	}
	if !same || !differs {
		t.Fatalf("same seed gives same list: %v; another seed differs: %v", same, differs)
	}
	// Every job must be in the catalogue the digests cover.
	cat := map[string]bool{}
	for _, s := range catalogue() {
		j, err := newJob(s)
		if err != nil {
			t.Fatal(err)
		}
		cat[j.key] = true
	}
	for _, s := range append(warm1, batch1...) {
		j, err := newJob(s)
		if err != nil {
			t.Fatal(err)
		}
		if !cat[j.key] {
			t.Fatalf("job %+v is not in the catalogue", s)
		}
	}
}
