package workload

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

func drain(t *testing.T, w cpu.Workload, max int) []cpu.Instr {
	t.Helper()
	var out []cpu.Instr
	for i := 0; i < max; i++ {
		in, ok := w.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}

func TestZipfConcentration(t *testing.T) {
	rng := sim.NewRNG(1)
	z := NewZipf(rng, 10000, 0.99)
	counts := map[uint64]int{}
	n := 50000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Top-10 values should absorb a large share of samples.
	top := 0
	for v := uint64(0); v < 10; v++ {
		top += counts[v]
	}
	if frac := float64(top) / float64(n); frac < 0.2 {
		t.Fatalf("top-10 share = %.2f, want heavy concentration", frac)
	}
	// All samples in range.
	for v := range counts {
		if v >= 10000 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

// zetaBits is the zipfian normaliser summed in its original order, as
// float bits.
func zetaBits(n uint64, theta float64) uint64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return math.Float64bits(sum)
}

// TestZetaMemo checks the memoized zipfian normaliser bit for bit against
// the sum written out in its original order, on a first call, on a memo
// hit, and after the memo has filled and been emptied more than once; and
// that the memo never holds more than its bound.
func TestZetaMemo(t *testing.T) {
	for round := 0; round < 2; round++ {
		for k := uint64(1); k <= 3*zetaMemoCap; k++ {
			n, theta := 97*k, 0.99
			if k%2 == 0 {
				theta = 0.8
			}
			want := zetaBits(n, theta)
			for call := 0; call < 2; call++ {
				if got := math.Float64bits(zeta(n, theta)); got != want {
					t.Fatalf("round %d, zeta(%d, %v) call %d = %#x, want %#x",
						round, n, theta, call, got, want)
				}
			}
			zetaMemo.Lock()
			size := len(zetaMemo.m)
			zetaMemo.Unlock()
			if size > zetaMemoCap {
				t.Fatalf("memo holds %d entries, bound %d", size, zetaMemoCap)
			}
		}
	}
}

// TestZetaMemoConcurrent builds samplers' normalisers from several
// goroutines at once, as nvmserved's workers do, over more keys than the
// memo holds, so lookups, inserts and emptying race.
func TestZetaMemoConcurrent(t *testing.T) {
	want := map[uint64]uint64{}
	for k := uint64(1); k <= 2*zetaMemoCap; k++ {
		want[31*k] = zetaBits(31*k, 0.99)
	}
	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(1); k <= 2*zetaMemoCap; k++ {
				n := 31 * ((k+16*g)%(2*zetaMemoCap) + 1)
				if got := math.Float64bits(zeta(n, 0.99)); got != want[n] {
					t.Errorf("zeta(%d, 0.99) = %#x, want %#x", n, got, want[n])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSPECTableMatchesPaper(t *testing.T) {
	tab := SPECTable()
	if len(tab) != 13 {
		t.Fatalf("SPECTable has %d entries, want 13 (Table IV)", len(tab))
	}
	mcf, ok := SPECBenchByName("mcf")
	if !ok || mcf.MPKI != 27.1 {
		t.Fatalf("mcf = %+v", mcf)
	}
	if _, ok := SPECBenchByName("nope"); ok {
		t.Fatal("bogus bench found")
	}
	for _, b := range tab {
		if b.MPKI < 2.0 {
			t.Errorf("%s MPKI %.1f below the paper's >=2 selection threshold", b.Name, b.MPKI)
		}
	}
}

func TestSPECGeneratorBudget(t *testing.T) {
	w := SPEC(SPECTable()[0], 5000, 1)
	ins := drain(t, w, 10000)
	if len(ins) != 5000 {
		t.Fatalf("generated %d instructions, want 5000", len(ins))
	}
}

func TestSPECGeneratorDeterministic(t *testing.T) {
	a := drain(t, SPEC(SPECTable()[1], 2000, 7), 3000)
	b := drain(t, SPEC(SPECTable()[1], 2000, 7), 3000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestSPECMemIntensityTracksMPKI(t *testing.T) {
	far := func(b SPECBench) float64 {
		ins := drain(t, SPEC(b, 50000, 3), 50000)
		farCount := 0
		for _, in := range ins {
			if in.IsMem && in.Addr >= 16<<20 {
				farCount++
			}
		}
		return float64(farCount) / float64(len(ins)) * 1000
	}
	mcf, _ := SPECBenchByName("mcf")
	omnetpp, _ := SPECBenchByName("omnetpp")
	fMcf := far(mcf)
	fOmn := far(omnetpp)
	if fMcf < 3*fOmn {
		t.Fatalf("mcf far-access rate (%.1f/ki) not >> omnetpp (%.1f/ki)", fMcf, fOmn)
	}
}

func TestCloudNamesComplete(t *testing.T) {
	names := CloudNames()
	if len(names) != 6 {
		t.Fatalf("CloudNames = %v", names)
	}
	for _, n := range names {
		w := Cloud(n, CloudOptions{Instructions: 1000, Seed: 2})
		if w == nil {
			t.Fatalf("Cloud(%q) = nil", n)
		}
		ins := drain(t, w, 2000)
		if len(ins) == 0 {
			t.Fatalf("%s generated nothing", n)
		}
	}
	if Cloud("bogus", CloudOptions{}) != nil {
		t.Fatal("bogus workload not nil")
	}
}

func TestRedisReadDominated(t *testing.T) {
	ins := drain(t, Redis(CloudOptions{Instructions: 30000, Seed: 1}), 30000)
	var reads, writes int
	for _, in := range ins {
		if !in.IsMem {
			continue
		}
		if in.IsLoad {
			reads++
		} else {
			writes++
		}
	}
	if reads < 3*writes {
		t.Fatalf("Redis reads (%d) not dominating writes (%d)", reads, writes)
	}
	// Pointer chasing: most reads are dependent.
	dep := 0
	for _, in := range ins {
		if in.IsLoad && in.DependsOnLoad {
			dep++
		}
	}
	if dep < reads/2 {
		t.Fatalf("dependent reads %d of %d, want majority", dep, reads)
	}
}

func TestYCSBWriteConcentration(t *testing.T) {
	ins := drain(t, YCSB(CloudOptions{Instructions: 60000, Seed: 5}), 60000)
	counts := map[uint64]int{}
	total := 0
	for _, in := range ins {
		if in.IsMem && !in.IsLoad && !in.Clwb && !in.Fence {
			counts[in.Addr&^63]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no writes")
	}
	// Find top-10 lines.
	top := make([]int, 0, len(counts))
	for _, c := range counts {
		top = append(top, c)
	}
	max10 := 0
	for i := 0; i < 10; i++ {
		best := -1
		for j, c := range top {
			if best < 0 || c > top[best] {
				best = j
			}
			_ = c
		}
		if best < 0 {
			break
		}
		max10 += top[best]
		top[best] = -1
	}
	if frac := float64(max10) / float64(total); frac < 0.15 {
		t.Fatalf("top-10 lines absorb %.2f of writes, want concentrated", frac)
	}
}

func TestFIOWriteSequential(t *testing.T) {
	ins := drain(t, FIOWrite(CloudOptions{Instructions: 5000, Seed: 1}), 5000)
	var last uint64
	seen := 0
	for _, in := range ins {
		if in.IsMem && in.NT {
			if seen > 0 && in.Addr != last+64 && in.Addr != 0 {
				t.Fatalf("non-sequential write: %d after %d", in.Addr, last)
			}
			last = in.Addr
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no NT writes")
	}
}

func TestChainStableAcrossMkptRuns(t *testing.T) {
	// The same seed must give the same traversal with and without mkpt so
	// speedups compare like against like.
	addrs := func(mkpt bool) []uint64 {
		ins := drain(t, LinkedList(CloudOptions{Instructions: 5000, Seed: 9, Mkpt: mkpt}), 5000)
		var out []uint64
		for _, in := range ins {
			if in.IsLoad {
				out = append(out, in.Addr)
			}
		}
		return out
	}
	a, b := addrs(false), addrs(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("address %d differs with mkpt", i)
		}
	}
}

func TestMkptMarksCarryNextAddr(t *testing.T) {
	ins := drain(t, LinkedList(CloudOptions{Instructions: 2000, Seed: 3, Mkpt: true}), 2000)
	marked := 0
	for _, in := range ins {
		if in.Mkpt {
			marked++
			if in.NextAddr == in.Addr {
				t.Fatal("mkpt NextAddr equals Addr")
			}
		}
	}
	if marked == 0 {
		t.Fatal("no mkpt-marked loads")
	}
}

func TestTPCCHasFences(t *testing.T) {
	ins := drain(t, TPCC(CloudOptions{Instructions: 10000, Seed: 2}), 10000)
	fences := 0
	for _, in := range ins {
		if in.Fence {
			fences++
		}
	}
	if fences == 0 {
		t.Fatal("TPCC has no commit fences")
	}
}

func TestHashMapMix(t *testing.T) {
	ins := drain(t, HashMap(CloudOptions{Instructions: 10000, Seed: 2}), 10000)
	var loads, stores, fences int
	for _, in := range ins {
		switch {
		case in.Fence:
			fences++
		case in.IsMem && in.IsLoad:
			loads++
		case in.IsMem:
			stores++
		}
	}
	if loads == 0 || stores == 0 || fences == 0 {
		t.Fatalf("mix: loads=%d stores=%d fences=%d", loads, stores, fences)
	}
}

// TestGenNextAllocFree checks that a warm generator allocates nothing per
// instruction: Next reuses the queue array once its instructions are
// consumed.
func TestGenNextAllocFree(t *testing.T) {
	mcf, _ := SPECBenchByName("mcf")
	gens := map[string]cpu.Workload{"SPEC mcf": SPEC(mcf, 1<<30, 3)}
	for _, name := range CloudNames() {
		gens[name] = Cloud(name, CloudOptions{Instructions: 1 << 30, Seed: 3, Mkpt: true})
	}
	for name, w := range gens {
		for i := 0; i < 10000; i++ {
			w.Next()
		}
		if n := testing.AllocsPerRun(5000, func() { w.Next() }); n != 0 {
			t.Errorf("%s: Next allocates %.2f objects per instruction, want 0", name, n)
		}
	}
}
