package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// recorder is a minimal tracer: append-only event capture.
type recorder struct{ events []Event }

func (r *recorder) OnEvent(ev Event) { r.events = append(r.events, ev) }

func TestNilObsIsSafe(t *testing.T) {
	var o *Obs
	if o.Active() {
		t.Fatal("nil Obs reports active")
	}
	o.Emit(Event{Stage: StageMedia})
	o.RegisterPtr("c", "n", new(uint64))
	o.RegisterFunc("c", "n", func() uint64 { return 1 })
	o.AdoptEngine(sim.NewEngine())
	if c := o.Child(); c != nil {
		t.Fatal("Child of nil Obs must be nil")
	}
	o.Counter("c", "n").Inc() // nil counter, nil-safe
	if d := o.Dump(); len(d.Counters) != 0 || len(d.Histograms) != 0 {
		t.Fatal("nil Obs dump not empty")
	}
	if g := o.Digest(); g != (Digest{}) {
		t.Fatal("nil Obs digest not zero")
	}
}

func TestEmitReachesTracers(t *testing.T) {
	o := New()
	if o.Active() {
		t.Fatal("fresh Obs active before Attach")
	}
	rec := &recorder{}
	o.Attach(rec)
	if !o.Active() {
		t.Fatal("Obs inactive after Attach")
	}
	ev := Event{Now: 7, Stage: StageRMW, Pos: PosHit, Write: true, Comp: "dimm0", Addr: 0x100}
	o.Emit(ev)
	if len(rec.events) != 1 || rec.events[0] != ev {
		t.Fatalf("tracer got %+v, want [%+v]", rec.events, ev)
	}
}

func TestChildSharesHooksAtCreation(t *testing.T) {
	o := New()
	rec := &recorder{}
	o.Attach(rec)
	c := o.Child()
	c.Emit(Event{Stage: StageMedia, Pos: PosIssue, Comp: "m"})
	if len(rec.events) != 1 {
		t.Fatalf("child emit not delivered: %d events", len(rec.events))
	}

	// A tracer attached after Child does not propagate to existing children.
	late := New()
	c2 := late.Child()
	late.Attach(rec)
	c2.Emit(Event{Stage: StageMedia})
	if len(rec.events) != 1 {
		t.Fatal("late Attach leaked into a pre-existing child")
	}
}

func TestRegistryDumpAggregatesFamily(t *testing.T) {
	o := New()
	var v uint64 = 5
	o.RegisterPtr("imc0", "reads", &v)
	o.RegisterFunc("imc0", "writes", func() uint64 { return 11 })
	o.Counter("driver", "faults").Add(3)

	// Same-name counters across children sum.
	c1, c2 := o.Child(), o.Child()
	var a, b uint64 = 10, 32
	c1.RegisterPtr("dimm0", "media_writes", &a)
	c2.RegisterPtr("dimm0", "media_writes", &b)

	d := o.Dump()
	got := map[string]uint64{}
	for _, c := range d.Counters {
		got[c.Name] = c.Value
	}
	want := map[string]uint64{
		"imc0/reads": 5, "imc0/writes": 11, "driver/faults": 3,
		"dimm0/media_writes": 42,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
	if len(d.Counters) != len(want) {
		t.Fatalf("dump has %d counters, want %d", len(d.Counters), len(want))
	}
	for i := 1; i < len(d.Counters); i++ {
		if d.Counters[i-1].Name >= d.Counters[i].Name {
			t.Fatalf("dump counters not sorted: %q before %q",
				d.Counters[i-1].Name, d.Counters[i].Name)
		}
	}
}

// TestObserveBucketMatchesSearch: Observe scans the bounds from the lowest;
// it must pick the bucket a binary search picks (the first bound at least
// the value, else the overflow bucket) for every value: each bound, its
// neighbours, and random values of every magnitude.
func TestObserveBucketMatchesSearch(t *testing.T) {
	for _, bounds := range [][]uint64{DefaultLatencyBounds(), ExpBounds(1, 10), {5, 5, 9}, nil} {
		var vals []uint64
		for _, b := range bounds {
			vals = append(vals, b-1, b, b+1)
		}
		rng := sim.NewRNG(3)
		for i := 0; i < 2000; i++ {
			vals = append(vals, rng.Uint64()>>rng.Uint64n(64))
		}
		vals = append(vals, 0, ^uint64(0))
		for _, v := range vals {
			h := NewHistogram(bounds)
			h.Observe(v)
			want := sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] })
			if h.Counts()[want] != 1 {
				t.Fatalf("bounds %v: %d landed in buckets %v, want bucket %d", bounds, v, h.Counts(), want)
			}
		}
	}
}

func TestHistogramQuantilesAndMerge(t *testing.T) {
	bounds := ExpBounds(1, 10) // 1,2,4,...,512
	h := NewHistogram(bounds)
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.N() != 100 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("n=%d min=%d max=%d", h.N(), h.Min(), h.Max())
	}
	// Quantiles are bucket upper bounds: p50 of 1..100 lands in (32,64].
	if q := h.Quantile(0.50); q != 64 {
		t.Errorf("p50 = %d, want 64", q)
	}
	if q := h.Quantile(1.0); q < 100 {
		t.Errorf("p100 = %d, want >= 100", q)
	}

	other := NewHistogram(bounds)
	other.Observe(1000) // overflow bucket
	h.Merge(other)
	if h.N() != 101 || h.Max() != 1000 {
		t.Fatalf("after merge: n=%d max=%d", h.N(), h.Max())
	}

	// Round-trip through a dump and MergeDump.
	var dumped HistogramDump
	{
		o := New()
		hh := o.Histogram("c", "lat", bounds)
		hh.Observe(3)
		hh.Observe(7)
		d := o.Dump()
		if len(d.Histograms) != 1 {
			t.Fatalf("dump has %d histograms", len(d.Histograms))
		}
		dumped = d.Histograms[0]
	}
	agg := NewHistogram(dumped.Bounds)
	agg.MergeDump(&dumped)
	agg.MergeDump(&dumped)
	if agg.N() != 4 || agg.Sum() != 20 || agg.Min() != 3 || agg.Max() != 7 {
		t.Fatalf("MergeDump: n=%d sum=%d min=%d max=%d", agg.N(), agg.Sum(), agg.Min(), agg.Max())
	}
}

func TestDigestCountsEnginesAndMedia(t *testing.T) {
	o := New()
	eng := sim.NewEngine()
	fired := 0
	eng.Schedule(1, func() { fired++ })
	eng.Run()
	o.AdoptEngine(eng)

	c := o.Child()
	var mr, mw, mig uint64 = 10, 20, 2
	c.RegisterPtr("dimm0/media", "reads", &mr)
	c.RegisterPtr("dimm0/media", "writes", &mw)
	c.RegisterPtr("dimm0/wear", "migrations", &mig)

	g := o.Digest()
	if g.EventsFired == 0 {
		t.Error("digest saw no engine events")
	}
	if g.MediaReads != 10 || g.MediaWrites != 20 || g.Migrations != 2 {
		t.Errorf("digest = %+v", g)
	}
	if !strings.Contains(g.String(), "media_w=20") {
		t.Errorf("digest string %q", g.String())
	}
}

func TestLifecycleLimitAndNDJSON(t *testing.T) {
	lt := NewLifecycle(2) // 2 cycles per ns
	lt.Limit = 2
	o := New()
	o.Attach(lt)
	for i := 0; i < 5; i++ {
		o.Emit(Event{Now: sim.Cycle(i * 10), Stage: StageMedia, Pos: PosIssue, Comp: "m", Arg: 4})
	}
	if len(lt.Events()) != 2 || lt.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d", len(lt.Events()), lt.Dropped())
	}

	var buf bytes.Buffer
	if err := lt.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d", len(lines))
	}
	var line struct {
		Cycle uint64  `json:"cycle"`
		Ns    float64 `json:"ns"`
		Stage string  `json:"stage"`
		Pos   string  `json:"pos"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Cycle != 10 || line.Ns != 5 || line.Stage != "media" || line.Pos != "issue" {
		t.Fatalf("line = %+v", line)
	}
}

func TestChromeTraceShape(t *testing.T) {
	lt := NewLifecycle(1)
	o := New()
	o.Attach(lt)
	o.Emit(Event{Now: 0, Stage: StageRequest, Pos: PosIssue, Comp: "driver", Addr: 64})
	o.Emit(Event{Now: 1000, Stage: StageMedia, Pos: PosIssue, Comp: "dimm0/media", Addr: 64, Arg: 500})
	o.Emit(Event{Now: 2000, Stage: StageRequest, Pos: PosComplete, Comp: "driver", Addr: 64})

	var buf bytes.Buffer
	if err := lt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, instants int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Name != "media issue" || ev.Dur != 0.5 {
				t.Errorf("slice %+v, want media issue dur=0.5us", ev)
			}
		case "i":
			instants++
		}
	}
	if slices != 1 || instants != 2 {
		t.Fatalf("slices=%d instants=%d, want 1/2", slices, instants)
	}

	// Determinism: a second export of the same trace is byte-identical.
	var buf2 bytes.Buffer
	if err := lt.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-export differs")
	}
}

// TestEmitDisabledAllocs pins design constraint #1: with no tracer attached,
// the Active() guard keeps the call site allocation-free (the Event struct is
// never built), including for a nil Obs.
func TestEmitDisabledAllocs(t *testing.T) {
	for _, o := range []*Obs{nil, New()} {
		allocs := testing.AllocsPerRun(1000, func() {
			if o.Active() {
				o.Emit(Event{Now: 1, Stage: StageMedia, Pos: PosIssue, Comp: "m", Addr: 64})
			}
		})
		if allocs != 0 {
			t.Fatalf("disabled emit allocates %.1f/op", allocs)
		}
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	o := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if o.Active() {
			o.Emit(Event{Now: sim.Cycle(i), Stage: StageMedia, Pos: PosIssue, Comp: "m"})
		}
	}
}

func BenchmarkEmitNilObs(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if o.Active() {
			o.Emit(Event{Now: sim.Cycle(i), Stage: StageMedia, Pos: PosIssue, Comp: "m"})
		}
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	o := New()
	lt := NewLifecycle(1)
	lt.Limit = 1 << 30
	o.Attach(lt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(Event{Now: sim.Cycle(i), Stage: StageMedia, Pos: PosIssue, Comp: "m"})
	}
}
