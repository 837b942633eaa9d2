package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the user+system CPU time the process has used so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample holds the Go runtime counters a timed section is charged
// with. They come from runtime/metrics, which reads them without stopping
// the world.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU                    float64
	gcCycles                 uint64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		gcCycles:     s[3].Value.Uint64(),
	}
}

// section measures one timed section: wall clock, process CPU time and the
// runtime counters. start collects garbage first so that no earlier work is
// charged to the section.
type section struct {
	wall time.Time
	cpu  time.Duration
	rt   runtimeSample
}

type sectionResult struct {
	wall, cpu  time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	gcCycles   uint64
}

func startSection() section {
	runtime.GC()
	return section{rt: readRuntime(), cpu: cpuNow(), wall: time.Now()}
}

func (s section) stop() sectionResult {
	wall := time.Since(s.wall)
	cpu := cpuNow() - s.cpu
	rt := readRuntime()
	return sectionResult{
		wall:       wall,
		cpu:        cpu,
		allocBytes: rt.allocBytes - s.rt.allocBytes,
		allocObjs:  rt.allocObjects - s.rt.allocObjects,
		gcCPU:      rt.gcCPU - s.rt.gcCPU,
		gcCycles:   rt.gcCycles - s.rt.gcCycles,
	}
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// median returns the median of xs (the mean of the two middle values for an
// even count). A run's end-to-end figures are medians over its batches.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// minBeyond is the fewest samples that must lie above a reported
// percentile. With fewer, the percentile is the largest few samples and
// says nothing about the distribution.
const minBeyond = 10

// percentile is a nearest-rank percentile that knows its sample count.
type percentile struct {
	q      float64
	value  float64
	n      int
	beyond int
}

// percentileOf returns the q-th nearest-rank percentile of xs, or an error
// when fewer than minBeyond samples lie beyond it.
func percentileOf(xs []float64, q float64) (percentile, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	p := percentile{q: q, n: n, beyond: n - rank}
	if p.beyond < minBeyond {
		return p, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			q*100, n, p.beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p.value = s[rank-1]
	return p, nil
}

func (p percentile) String() string {
	return fmt.Sprintf("%.4g (n=%d, %d beyond)", p.value, p.n, p.beyond)
}
