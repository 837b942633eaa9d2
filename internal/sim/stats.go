package sim

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator collects samples and exposes streaming moments plus the raw
// samples for percentile queries. It is used for latency distributions.
type Accumulator struct {
	samples []float64
	sum     float64
	sumSq   float64
	min     float64
	max     float64
	sorted  bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one sample.
func (a *Accumulator) Observe(v float64) {
	a.samples = append(a.samples, v)
	a.sum += v
	a.sumSq += v * v
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.sorted = false
}

// N returns the sample count.
func (a *Accumulator) N() int { return len(a.samples) }

// Sum returns the sample total.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 {
	if len(a.samples) == 0 {
		return 0
	}
	return a.sum / float64(len(a.samples))
}

// Std returns the population standard deviation, or 0 with <2 samples.
func (a *Accumulator) Std() float64 {
	n := float64(len(a.samples))
	if n < 2 {
		return 0
	}
	v := a.sumSq/n - (a.sum/n)*(a.sum/n)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample, or 0 with no samples.
func (a *Accumulator) Min() float64 {
	if len(a.samples) == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest sample, or 0 with no samples.
func (a *Accumulator) Max() float64 {
	if len(a.samples) == 0 {
		return 0
	}
	return a.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation, or 0 with no samples.
func (a *Accumulator) Percentile(p float64) float64 {
	if len(a.samples) == 0 {
		return 0
	}
	if !a.sorted {
		sort.Float64s(a.samples)
		a.sorted = true
	}
	if p <= 0 {
		return a.samples[0]
	}
	if p >= 100 {
		return a.samples[len(a.samples)-1]
	}
	rank := p / 100 * float64(len(a.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return a.samples[lo]
	}
	frac := rank - float64(lo)
	return a.samples[lo]*(1-frac) + a.samples[hi]*frac
}

// Reset discards all samples.
func (a *Accumulator) Reset() {
	a.samples = a.samples[:0]
	a.sum, a.sumSq = 0, 0
	a.min, a.max = math.Inf(1), math.Inf(-1)
	a.sorted = false
}

// String summarizes the distribution for logs and reports.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f",
		a.N(), a.Mean(), a.Std(), a.Min(), a.Percentile(50), a.Percentile(99), a.Max())
}

// Summary is a compact snapshot of a distribution: the shape served by the
// nvmserved metrics endpoint and reused anywhere a full Accumulator would be
// too heavy to ship (it marshals to flat JSON).
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Summarize returns the accumulator's distribution summary.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		N:    a.N(),
		Mean: a.Mean(),
		P50:  a.Percentile(50),
		P95:  a.Percentile(95),
		P99:  a.Percentile(99),
		Max:  a.Max(),
	}
}
