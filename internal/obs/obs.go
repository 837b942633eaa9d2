// Package obs is the observability layer spanning the whole simulator: typed
// lifecycle hooks (the Akita hookable pattern — a no-op branch when nothing
// is attached), a per-component registry of named counters and fixed-bucket
// latency histograms, and pluggable tracers that can follow one access
// through iMC → LSQ → RMW → AIT → media.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Hook call sites guard with Active(), which is
//     a nil check plus a bool load and inlines; the Event struct is only
//     constructed inside the guard, so the hot path stays allocation-free
//     (pinned by BenchmarkEmitDisabled and the engine/media alloc guards).
//  2. Nil-safe everywhere. A component holds a *Obs that may be nil; every
//     method has an explicit nil-receiver branch, so unobserved systems need
//     no wiring at all.
//  3. Deterministic aggregation under parallelism. Construction-time calls
//     (Child, Attach, registration, AdoptEngine) take the parent mutex;
//     the hot path (Emit, Counter.Add, Histogram.Observe) is single-threaded
//     by the same argument as the engine itself: each child Obs belongs to
//     exactly one engine's goroutine. Aggregation (Dump, Digest) happens
//     after the owning goroutines join.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Stage identifies the datapath structure an event happened in. The taxonomy
// follows the paper's Fig. 2 datapath: requests enter at the iMC (WPQ/RPQ),
// cross to the on-DIMM LSQ, combine in the RMW buffer, translate through the
// AIT (backed by on-DIMM DRAM), and land on 3D-XPoint media, with the
// wear-leveler migrating worn blocks underneath.
type Stage uint8

// Stages in datapath order.
const (
	StageRequest Stage = iota // CPU-visible request (driver boundary)
	StageWPQ                  // iMC write pending queue (ADR domain)
	StageRPQ                  // iMC read pending queue
	StageLSQ                  // on-DIMM load-store queue
	StageRMW                  // 16KB read-modify-write buffer
	StageAIT                  // address indirection table (translate + buffer)
	StageMedia                // 3D-XPoint media access
	StageWear                 // wear-leveling migration
	StageDRAM                 // on-DIMM DRAM (AIT table/data backing)

	numStages
)

var stageNames = [numStages]string{
	"request", "wpq", "rpq", "lsq", "rmw", "ait", "media", "wear", "dram",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Pos is the typed hook position within a stage.
type Pos uint8

// Hook positions.
const (
	PosEnqueue  Pos = iota // accepted into a queue
	PosDequeue             // popped for downstream processing
	PosIssue               // operation issued to the structure
	PosComplete            // operation finished
	PosHit                 // structure lookup hit (forward/combine)
	PosMiss                // structure lookup miss
	PosMigrate             // wear-leveling migration started
	PosFault               // injected or detected fault (poison, stall)

	numPos
)

var posNames = [numPos]string{
	"enqueue", "dequeue", "issue", "complete", "hit", "miss", "migrate", "fault",
}

// String names the position.
func (p Pos) String() string {
	if int(p) < len(posNames) {
		return posNames[p]
	}
	return fmt.Sprintf("pos(%d)", uint8(p))
}

// Event is one lifecycle hook firing. It is a flat value struct — no
// interfaces, no pointers beyond the component name — so constructing one
// does not allocate.
type Event struct {
	// Now is the engine cycle the event refers to (for duration events, the
	// start cycle).
	Now sim.Cycle
	// Stage and Pos locate the event in the datapath.
	Stage Stage
	Pos   Pos
	// Write distinguishes the store path from the load path.
	Write bool
	// Comp names the component instance ("dimm0", "imc0", "dimm0/media").
	Comp string
	// Addr is the address the event concerns (stage-local address space).
	Addr uint64
	// Arg carries a per-position extra: a duration in cycles for
	// PosIssue/PosMigrate spans, a stall length for PosFault, a request ID
	// for StageRequest events. Zero when unused.
	Arg uint64
}

// Tracer consumes lifecycle events. Implementations must not retain the
// event past the call unless they copy it (Event is a value, so plain
// append copies).
type Tracer interface {
	OnEvent(ev Event)
}

// Obs is one observability context: a hook set, a registry, and the engines
// it watches. A parent Obs hands out Child contexts so concurrently built
// systems (parallel sweep points) each own a single-threaded context while
// Dump/Digest aggregate the whole family.
type Obs struct {
	// hooks is fixed after construction/Attach; active mirrors len(hooks)>0
	// so the hot-path guard is one load.
	hooks  []Tracer
	active bool

	mu       sync.Mutex
	parent   *Obs
	children []*Obs
	counters []*Counter
	hists    []*Histogram
	engines  []*sim.Engine
}

// New returns an empty observability context with no tracers attached.
func New() *Obs { return &Obs{} }

// Attach adds a tracer. Attach before constructing observed systems: Child
// copies the hook set at creation, so later attachments do not propagate to
// existing children. Attaching to a nil Obs is a no-op.
func (o *Obs) Attach(t Tracer) {
	if o == nil || t == nil {
		return
	}
	o.mu.Lock()
	o.hooks = append(o.hooks, t)
	o.active = true
	o.mu.Unlock()
}

// Active reports whether any tracer is attached. It is the hot-path guard:
// call sites construct an Event only when Active returns true.
func (o *Obs) Active() bool { return o != nil && o.active }

// Emit delivers ev to every attached tracer. Callers on hot paths should
// guard with Active() so the Event struct is never built when disabled.
func (o *Obs) Emit(ev Event) {
	if o == nil || !o.active {
		return
	}
	for _, t := range o.hooks {
		t.OnEvent(ev)
	}
}

// Child derives a context for one concurrently-built system: it shares the
// parent's tracers (copied at this moment) and registers itself for
// aggregation. Child of a nil Obs is nil, so unobserved construction paths
// need no checks.
func (o *Obs) Child() *Obs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	c := &Obs{hooks: o.hooks, active: o.active, parent: o}
	o.children = append(o.children, c)
	o.mu.Unlock()
	return c
}

// AdoptEngine registers an engine for Digest accounting (events fired, peak
// pending). Nil-safe.
func (o *Obs) AdoptEngine(e *sim.Engine) {
	if o == nil || e == nil {
		return
	}
	o.mu.Lock()
	o.engines = append(o.engines, e)
	o.mu.Unlock()
}

// ------------------------------------------------------------ counters

// Counter is a registry-backed named counter. It reads from exactly one of:
// an owned value (Add/Inc), a registered pointer into an existing stats
// struct (zero hot-path cost — the component keeps bumping its own field),
// or a derived function.
type Counter struct {
	comp, name string
	v          uint64
	ptr        *uint64
	fn         func() uint64
}

// Add increments an owned counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments an owned counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	switch {
	case c == nil:
		return 0
	case c.fn != nil:
		return c.fn()
	case c.ptr != nil:
		return *c.ptr
	default:
		return c.v
	}
}

// Counter registers (or returns) an owned counter named comp/name. Returns
// nil on a nil Obs; Counter methods are nil-safe.
func (o *Obs) Counter(comp, name string) *Counter {
	if o == nil {
		return nil
	}
	c := &Counter{comp: comp, name: name}
	o.mu.Lock()
	o.counters = append(o.counters, c)
	o.mu.Unlock()
	return c
}

// RegisterPtr backs a registry counter by an existing uint64 field. The
// component keeps mutating the field directly — registration costs nothing
// on the hot path.
func (o *Obs) RegisterPtr(comp, name string, p *uint64) {
	if o == nil || p == nil {
		return
	}
	o.mu.Lock()
	o.counters = append(o.counters, &Counter{comp: comp, name: name, ptr: p})
	o.mu.Unlock()
}

// RegisterFunc backs a registry counter by a derived function (e.g. a
// structure's accessor). fn is called during Dump, after the owning
// goroutine has quiesced.
func (o *Obs) RegisterFunc(comp, name string, fn func() uint64) {
	if o == nil || fn == nil {
		return
	}
	o.mu.Lock()
	o.counters = append(o.counters, &Counter{comp: comp, name: name, fn: fn})
	o.mu.Unlock()
}

// ------------------------------------------------------------ histograms

// Histogram is a bounded fixed-bucket latency histogram: counts[i] holds
// observations v <= bounds[i]; the final slot counts overflow. Memory is
// O(len(bounds)) regardless of sample count — the replacement for the
// unbounded sim.Accumulator on long-lived service paths.
type Histogram struct {
	comp, name string
	bounds     []uint64 // ascending upper bounds
	counts     []uint64 // len(bounds)+1, last = overflow
	count      uint64
	sum        uint64
	min, max   uint64
}

// ExpBounds returns n doubling bucket bounds starting at lo: lo, 2lo, 4lo...
func ExpBounds(lo uint64, n int) []uint64 {
	if lo == 0 {
		lo = 1
	}
	b := make([]uint64, n)
	for i := range b {
		b[i] = lo
		lo *= 2
	}
	return b
}

// DefaultLatencyBounds covers simulated access latencies: 16ns doubling to
// ~134ms (24 buckets), spanning a WPQ hit through a wear-migration stall.
func DefaultLatencyBounds() []uint64 { return ExpBounds(16, 24) }

// NewHistogram returns a histogram with the given ascending bounds.
func NewHistogram(bounds []uint64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Histogram registers a new histogram named comp/name with the given bounds
// (DefaultLatencyBounds when nil). Returns nil on a nil Obs; Observe on a
// nil Histogram is a no-op.
func (o *Obs) Histogram(comp, name string, bounds []uint64) *Histogram {
	if o == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultLatencyBounds()
	}
	h := NewHistogram(bounds)
	h.comp, h.name = comp, name
	o.mu.Lock()
	o.hists = append(o.hists, h)
	o.mu.Unlock()
	return h
}

// Observe records one sample. Nil-safe. The bucket is the first whose
// bound is at least v, found by a scan from the lowest: simulated latencies
// land in the first few buckets, where the scan beats a binary search.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// N returns the sample count.
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sample total.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the exact observed extremes (0 with no samples).
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []uint64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns the per-bucket counts (shared; do not mutate).
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// Quantile returns an upper-bound estimate of the q-th quantile (0..1): the
// bound of the bucket where the cumulative count crosses q, or the observed
// max for the overflow bucket.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				b := h.bounds[i]
				if b > h.max {
					b = h.max
				}
				return b
			}
			return h.max
		}
	}
	return h.max
}

// Merge folds other into h. Bounds must match (same registration source);
// mismatched merges are dropped rather than corrupting buckets.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.count == 0 {
		return
	}
	if len(h.bounds) != len(other.bounds) {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// MergeDump folds a flattened HistogramDump (e.g. out of a job result) into
// h. Bounds must match; mismatched merges are dropped.
func (h *Histogram) MergeDump(d *HistogramDump) {
	if h == nil || d == nil || d.Count == 0 {
		return
	}
	if len(h.bounds) != len(d.Bounds) || len(h.counts) != len(d.Counts) {
		return
	}
	for i := range h.counts {
		h.counts[i] += d.Counts[i]
	}
	if h.count == 0 || d.Min < h.min {
		h.min = d.Min
	}
	if d.Max > h.max {
		h.max = d.Max
	}
	h.count += d.Count
	h.sum += d.Sum
}

// --------------------------------------------------------------- dump

// CounterDump is one flattened counter ("comp/name").
type CounterDump struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistogramDump is one flattened histogram with its full bucket layout (so
// dumps merge losslessly across jobs and serve Prometheus buckets).
type HistogramDump struct {
	Name   string   `json:"name"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Min    uint64   `json:"min"`
	Max    uint64   `json:"max"`
	P50    uint64   `json:"p50"`
	P95    uint64   `json:"p95"`
	P99    uint64   `json:"p99"`
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// DumpAs flattens h into a named HistogramDump — the wire shape used by job
// results and the fleet dashboard. Nil-safe (returns a zero dump carrying
// only the name).
func (h *Histogram) DumpAs(name string) HistogramDump {
	if h == nil {
		return HistogramDump{Name: name}
	}
	return HistogramDump{
		Name: name, Count: h.N(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		Bounds: h.Bounds(), Counts: h.Counts(),
	}
}

// Dump is the flat aggregated view of an Obs family: every counter and
// histogram of the context and its children, same-name entries summed or
// merged, sorted by name. It marshals to flat JSON and renders as a table.
type Dump struct {
	Counters   []CounterDump   `json:"counters"`
	Histograms []HistogramDump `json:"histograms"`
}

// Dump aggregates the context and all its descendants. Call only after the
// goroutines driving child engines have joined. Nil-safe (returns an empty
// dump).
func (o *Obs) Dump() *Dump {
	d := &Dump{}
	if o == nil {
		return d
	}
	cvals := map[string]uint64{}
	hmerged := map[string]*Histogram{}
	o.collect(cvals, hmerged)

	for name, v := range cvals {
		d.Counters = append(d.Counters, CounterDump{Name: name, Value: v})
	}
	sort.Slice(d.Counters, func(i, j int) bool { return d.Counters[i].Name < d.Counters[j].Name })
	for name, h := range hmerged {
		d.Histograms = append(d.Histograms, HistogramDump{
			Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Bounds: h.bounds, Counts: h.counts,
		})
	}
	sort.Slice(d.Histograms, func(i, j int) bool { return d.Histograms[i].Name < d.Histograms[j].Name })
	return d
}

// collect folds this context's registry into the aggregation maps, then
// recurses into children.
func (o *Obs) collect(cvals map[string]uint64, hmerged map[string]*Histogram) {
	o.mu.Lock()
	counters := o.counters
	hists := o.hists
	children := o.children
	o.mu.Unlock()
	for _, c := range counters {
		cvals[c.comp+"/"+c.name] += c.Value()
	}
	for _, h := range hists {
		name := h.comp + "/" + h.name
		m, ok := hmerged[name]
		if !ok {
			m = NewHistogram(h.bounds)
			hmerged[name] = m
		}
		m.Merge(h)
	}
	for _, c := range children {
		c.collect(cvals, hmerged)
	}
}

// Table renders the dump as an aligned human-readable table.
func (d *Dump) Table() string {
	var b strings.Builder
	w := 0
	for _, c := range d.Counters {
		if len(c.Name) > w {
			w = len(c.Name)
		}
	}
	for _, h := range d.Histograms {
		if len(h.Name) > w {
			w = len(h.Name)
		}
	}
	for _, c := range d.Counters {
		fmt.Fprintf(&b, "%-*s %12d\n", w, c.Name, c.Value)
	}
	for _, h := range d.Histograms {
		fmt.Fprintf(&b, "%-*s n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
			w, h.Name, h.Count, float64(h.Sum)/maxF(1, float64(h.Count)),
			h.P50, h.P95, h.P99, h.Max)
	}
	return b.String()
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// --------------------------------------------------------------- digest

// Digest is the one-line per-run summary printed by cmd/experiments: enough
// to spot a sweep regression from CI logs without a full dump.
type Digest struct {
	EventsFired uint64 `json:"events_fired"`
	PeakPending int    `json:"peak_pending"`
	MediaReads  uint64 `json:"media_reads"`
	MediaWrites uint64 `json:"media_writes"`
	Migrations  uint64 `json:"migrations"`
}

// String renders the digest as one log line.
func (g Digest) String() string {
	return fmt.Sprintf("events=%d peak_pending=%d media_r=%d media_w=%d migrations=%d",
		g.EventsFired, g.PeakPending, g.MediaReads, g.MediaWrites, g.Migrations)
}

// Digest summarizes the family: engine totals plus the media/wear counters
// matched by registry-name suffix. Call after the owning goroutines join.
func (o *Obs) Digest() Digest {
	var g Digest
	if o == nil {
		return g
	}
	o.digestInto(&g)
	return g
}

func (o *Obs) digestInto(g *Digest) {
	o.mu.Lock()
	counters := o.counters
	engines := o.engines
	children := o.children
	o.mu.Unlock()
	for _, e := range engines {
		g.EventsFired += e.Fired()
		if p := e.PeakPending(); p > g.PeakPending {
			g.PeakPending = p
		}
	}
	for _, c := range counters {
		name := c.comp + "/" + c.name
		switch {
		case strings.HasSuffix(name, "media/reads"):
			g.MediaReads += c.Value()
		case strings.HasSuffix(name, "media/writes"):
			g.MediaWrites += c.Value()
		case strings.HasSuffix(name, "wear/migrations") || strings.HasSuffix(name, "optane/tails"):
			g.Migrations += c.Value()
		}
	}
	for _, c := range children {
		c.digestInto(g)
	}
}
