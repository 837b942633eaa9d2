package server

import (
	"cmp"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vans"
	"repro/internal/workload"
)

// vansCapture is the reference capture: the core over a 256 MB VANS system,
// its submissions recorded by a trace.Collector. captureCloud must return
// the same access list without the timing model.
func vansCapture(cfg cpu.Config, w cpu.Workload) []mem.Access {
	capCfg := vans.DefaultConfig()
	capCfg.NV.Media.Capacity = 256 << 20
	col := trace.NewCollector(vans.New(capCfg))
	cpu.New(cfg, col).Run(w)
	accs := make([]mem.Access, len(col.Records))
	for i, rec := range col.Records {
		accs[i] = rec.Access()
	}
	return accs
}

// cloudPlan compiles a cloud job spec into its main workload plan.
func cloudPlan(t testing.TB, name string, instructions int, footprint string) WorkloadPlan {
	t.Helper()
	p, err := JobSpec{Workload: WorkloadSpec{Kind: KindCloud, Name: name,
		Instructions: instructions, Footprint: footprint}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p.mainWorkload()
}

// sameAccesses fails t at the first access where got and want differ.
func sameAccesses(t *testing.T, got, want []mem.Access) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.Addr != w.Addr || g.Size != w.Size {
			t.Fatalf("access %d: got %v %#x %d, want %v %#x %d",
				i, g.Op, g.Addr, g.Size, w.Op, w.Addr, w.Size)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d accesses, want %d", len(got), len(want))
	}
}

// TestCaptureCloudMatchesVANS is the capture's oracle: for every Section V
// workload and one SPEC bench, at the default footprint and at 1G (four
// times the reference's media), a job's capture at the default 50,000
// instructions is exactly the access list the core sends a VANS system.
func TestCaptureCloudMatchesVANS(t *testing.T) {
	names := append(workload.CloudNames(), "mcf")
	for _, fp := range []string{"", "1G"} {
		for _, name := range names {
			t.Run(name+"/"+cmp.Or(fp, "default"), func(t *testing.T) {
				t.Parallel()
				wp := cloudPlan(t, name, 0, fp)
				want := vansCapture(cpu.DefaultConfig(), cloudWorkload(wp, 7))
				if len(want) == 0 {
					t.Fatal("the reference capture is empty")
				}
				sameAccesses(t, captureCloud(wp, 7), want)
			})
		}
	}
}

// TestCaptureOrderUnderEvictions runs the same comparison with caches small
// enough that dirty lines are written back from the LLC, so write-backs
// interleave with the RFOs, clwbs and fences: their order, too, must not
// depend on the memory's timing.
func TestCaptureOrderUnderEvictions(t *testing.T) {
	small := cpu.DefaultConfig()
	small.L1 = cache.Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64}
	small.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64}
	small.L3 = cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}
	writeBacks := 0
	for _, name := range append(workload.CloudNames(), "mcf") {
		wp := cloudPlan(t, name, 20000, "")
		want := vansCapture(small, cloudWorkload(wp, 3))
		sys := newCaptureSystem()
		cpu.New(small, sys).Run(cloudWorkload(wp, 3))
		t.Run(name, func(t *testing.T) { sameAccesses(t, sys.accs, want) })
		if !sys.Drained() {
			t.Errorf("%s: capture system not drained after the run", name)
		}
		for _, a := range want {
			if a.Op == mem.OpWrite {
				writeBacks++
			}
		}
	}
	if writeBacks == 0 {
		t.Fatal("no LLC write-back in any reference: the caches are too large to test eviction order")
	}
	t.Logf("%d LLC write-backs across the workloads", writeBacks)
}

// BenchmarkCaptureCloud times one cloud job's trace capture, the set-up a
// cloud job pays before its own simulation starts: one capture of 2,000
// instructions per op at the default footprint.
func BenchmarkCaptureCloud(b *testing.B) {
	for _, name := range []string{"YCSB", "Redis", "mcf"} {
		b.Run(name, func(b *testing.B) {
			wp := cloudPlan(b, name, 2000, "")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(captureCloud(wp, 1)) == 0 {
					b.Fatal("empty capture")
				}
			}
		})
	}
}
