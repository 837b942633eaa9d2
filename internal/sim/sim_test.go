package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByCycle(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestEngineScheduleInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var fired Cycle = Never
	e.Schedule(100, func() {
		e.Schedule(50, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past-scheduled event fired at %d, want 100", fired)
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var trail []Cycle
	e.After(10, func() {
		trail = append(trail, e.Now())
		e.After(5, func() { trail = append(trail, e.Now()) })
	})
	e.Run()
	if len(trail) != 2 || trail[0] != 10 || trail[1] != 15 {
		t.Fatalf("trail = %v, want [10 15]", trail)
	}
}

func TestEngineRunUntilAdvancesTime(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(10, func() { ran = true })
	e.Schedule(100, func() { t.Fatal("should not run") })
	e.RunUntil(50)
	if !ran {
		t.Fatal("event at 10 did not run")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Cycle(i), func() { count++ })
	}
	e.RunWhile(func() bool { return count < 3 })
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// Property: PermCycle always produces a single-cycle permutation — following
// the chain visits every element exactly once before returning to start.
func TestPermCycleIsSingleCycle(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 2
		p := NewRNG(seed).PermCycle(n)
		seen := make([]bool, n)
		at := 0
		for i := 0; i < n; i++ {
			if seen[at] {
				return false
			}
			seen[at] = true
			at = int(p[at])
		}
		return at == 0 // back to start after exactly n hops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Perm is a permutation (bijection over [0,n)).
func TestPermIsBijection(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMoments(t *testing.T) {
	a := NewAccumulator()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		a.Observe(v)
	}
	if a.N() != 5 {
		t.Fatalf("N = %d", a.N())
	}
	if got := a.Mean(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if got := a.Std(); math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("Std = %v", got)
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if got := a.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := a.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := a.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	a := NewAccumulator()
	if a.Mean() != 0 || a.Std() != 0 || a.Min() != 0 || a.Max() != 0 || a.Percentile(50) != 0 {
		t.Fatal("empty accumulator should return zeros")
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := NewAccumulator()
	a.Observe(10)
	a.Reset()
	if a.N() != 0 || a.Sum() != 0 {
		t.Fatal("reset did not clear")
	}
	a.Observe(2)
	if a.Mean() != 2 {
		t.Fatal("accumulator unusable after reset")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := NewAccumulator()
		for i := 0; i < 50; i++ {
			a.Observe(r.Float64() * 1000)
		}
		prev := a.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := a.Percentile(p)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return a.Percentile(0) >= a.Min()-1e-9 && a.Percentile(100) <= a.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
