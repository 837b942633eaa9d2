package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one job
// share its id; a root span has parent -1.
type span struct {
	Name       string             `json:"name"`
	Job        int                `json:"job"`
	Parent     int                `json:"parent"`
	StartNs    int64              `json:"start_ns"`
	EndNs      int64              `json:"end_ns"`
	CPUNs      int64              `json:"cpu_ns"`
	AllocBytes uint64             `json:"alloc_bytes"`
	AllocObjs  uint64             `json:"alloc_objects"`
	Attrs      map[string]float64 `json:"attrs,omitempty"`

	cpu0, bytes0, objs0 uint64
}

func (s *span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. With allocs set, every
// span also records the heap allocations made inside it. ReadMemStats
// flushes the per-P allocation caches, so the counts are exact even around
// one small call, but it stops the world twice per span; only serial
// pipelines use it.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	allocs bool
	ms     runtime.MemStats
}

// Spans are preallocated so that growing the slice rarely allocates inside
// a span being measured.
func newTracer(allocs bool) *tracer {
	return &tracer{origin: time.Now(), allocs: allocs, spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(name string, job, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Job: job, Parent: parent}
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		s.bytes0, s.objs0 = t.ms.TotalAlloc, t.ms.Mallocs
	}
	s.cpu0 = uint64(cpuNow())
	s.StartNs = int64(time.Since(t.origin))
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	end := int64(time.Since(t.origin))
	cpu := uint64(cpuNow())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNs = end
	s.CPUNs = int64(cpu - s.cpu0)
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		s.AllocBytes, s.AllocObjs = t.ms.TotalAlloc-s.bytes0, t.ms.Mallocs-s.objs0
	}
}

// add records a span measured elsewhere, such as the queue and run times a
// server reports for a request.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

func (t *tracer) setAttr(id int, key string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// layerTotal sums, for one span name, the number of spans and their self time
// and self allocations: a span's own figures minus those of its children.
type layerTotal struct {
	n                   int
	selfNs              int64
	selfBytes, selfObjs uint64
}

func (t *tracer) totals() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]span, len(t.spans))
	copy(self, t.spans)
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		p := &self[s.Parent]
		p.EndNs -= s.dur()
		p.AllocBytes -= s.AllocBytes
		p.AllocObjs -= s.AllocObjs
	}
	out := map[string]*layerTotal{}
	for _, s := range self {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.n++
		lt.selfNs += s.dur()
		lt.selfBytes += s.AllocBytes
		lt.selfObjs += s.AllocObjs
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
