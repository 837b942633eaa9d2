package mem

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Driver issues request streams into a System and collects completion
// latencies. One issue loop (issue) serves every access discipline the LENS
// microbenchmarks and the replays need: a dependent chain (each access
// starts only after the previous completes — pointer chasing), a windowed
// stream (up to W outstanding — bandwidth tests), several windowed streams
// sharing the system (thread scaling), and a windowed stream cut off at a
// cycle (power failure).
type Driver struct {
	sys    System
	eng    *sim.Engine
	nextID uint64

	// faults counts completed requests that carried an access fault
	// (mem.Request.Err, e.g. injected uncorrectable media reads); firstErr
	// keeps the first such error for reporting.
	faults   int
	firstErr error

	o          *obs.Obs
	reads      uint64
	writes     uint64
	faultCount uint64
	histRead   *obs.Histogram
	histWrite  *obs.Histogram

	// ckpt, when set, makes checkpoint barriers part of the run (see
	// CkptPolicy). runStart is the engine cycle the windowed run started at;
	// it is serialized so a resumed run reports the same elapsed span.
	ckpt     *CkptPolicy
	ckptErr  error
	runStart sim.Cycle

	// free recycles requests: each returns to the list once its completion
	// is accounted, so a warm run allocates none. ss holds the current
	// run's streams; a request's Meta points at its stream, so onDone,
	// bound once by NewDriver, serves every stream and issuing a request
	// allocates no closure. A non-nil lats collects each completion's
	// latency.
	free   sim.FreeList[Request]
	ss     []stream
	lats   []sim.Cycle
	onDone func(*Request)
}

// stream is the issue loop's state for one access list: next is the first
// access not yet accepted, inflight counts the stream's outstanding
// requests and held is a refused request kept for its next attempt. The
// lists themselves are only passed to issue, never stored, so a caller's
// list does not escape to the heap.
type stream struct {
	next     int
	inflight int
	held     *Request
}

// NewDriver returns a driver bound to sys.
func NewDriver(sys System) *Driver {
	d := &Driver{sys: sys, eng: sys.Engine()}
	d.onDone = d.done
	return d
}

// request returns a recycled request for access a of stream st and emits
// its issue event.
func (d *Driver) request(a Access, st *stream) *Request {
	d.nextID++
	r := d.free.Get()
	*r = Request{ID: d.nextID, Op: a.Op, Addr: a.Addr, Size: a.Size, Data: a.Data, OnDone: d.onDone, Meta: st}
	if d.o.Active() {
		// Arg deliberately stays 0: PosIssue events carrying a nonzero Arg
		// render as duration slices in the Chrome exporter.
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRequest, Pos: obs.PosIssue,
			Write: r.Op != OpRead && r.Op != OpFence, Comp: "driver", Addr: r.Addr})
	}
	return r
}

// done completes one request of its stream and recycles it.
func (d *Driver) done(r *Request) {
	r.Meta.(*stream).inflight--
	if d.lats != nil {
		d.lats = append(d.lats, r.Latency())
	}
	d.noteDone(r)
	d.free.Put(r)
}

// open returns n fresh streams for a run.
func (d *Driver) open(n int) []stream {
	if cap(d.ss) < n {
		d.ss = make([]stream, n)
	}
	d.ss = d.ss[:n]
	clear(d.ss)
	return d.ss
}

// SetObs registers the driver's request counters and end-to-end latency
// histograms ("driver" component) and enables request-lifecycle hook
// emission. Call before issuing accesses.
func (d *Driver) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	d.o = o
	o.RegisterPtr("driver", "reads", &d.reads)
	o.RegisterPtr("driver", "writes", &d.writes)
	o.RegisterPtr("driver", "faults", &d.faultCount)
	d.histRead = o.Histogram("driver", "read_ns", nil)
	d.histWrite = o.Histogram("driver", "write_ns", nil)
}

// noteDone folds one completed request into the fault and latency
// accounting.
func (d *Driver) noteDone(r *Request) {
	if r.Err != nil {
		d.faults++
		d.faultCount++
		if d.firstErr == nil {
			d.firstErr = r.Err
		}
	}
	if d.o != nil {
		ns := uint64(float64(r.Latency()) / d.sys.CyclesPerNano())
		switch {
		case r.Op == OpRead:
			d.reads++
			d.histRead.Observe(ns)
		case r.Op.IsWrite() || r.Op == OpClwb:
			d.writes++
			d.histWrite.Observe(ns)
		}
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRequest,
				Pos: obs.PosComplete, Write: r.Op != OpRead, Comp: "driver",
				Addr: r.Addr, Arg: uint64(r.Latency())})
		}
	}
}

// Err returns the first access fault observed across all runs of this
// driver (nil when every access succeeded). Faults do not abort a run —
// the stream completes with its real timing — so callers check Err after
// the run to decide whether results are trustworthy.
func (d *Driver) Err() error { return d.firstErr }

// Faults returns the number of faulted accesses observed.
func (d *Driver) Faults() int { return d.faults }

// Access is one element of a driver stream.
type Access struct {
	Op   Op
	Addr uint64
	Size uint32
	// Data optionally carries a functional write payload (crash-consistency
	// and data-integrity runs). Nil means timing-only.
	Data []byte
}

// issue is the driver's one issue loop. It runs the streams opened for the
// run, stream k over lists[k]: it offers each stream's accesses in order,
// keeping up to window of the stream's requests outstanding, and reports
// true once every access is accepted. A refused request is held for its
// stream's next attempt. A lone stream that is blocked (window full or
// request refused) steps the engine one event and tries again in place.
// With several streams a blocked one yields to the next, and the engine
// steps one event only when a pass over the streams got no request in.
//
// issue reports false, leaving the rest unissued, when no event is due by
// limit, when a barrier of pol fails or when keepGoing says stop; both are
// consulted before each access is first offered. With no limit (sim.Never),
// a stream left waiting on an empty engine is a model deadlock, a bug
// reported loudly by a panic.
func (d *Driver) issue(lists [][]Access, window int, limit sim.Cycle, pol *CkptPolicy, keepGoing func() bool) bool {
	if window < 1 {
		window = 1
	}
	yield := len(lists) > 1
	for {
		got, left := false, false
	streams:
		for k, accs := range lists {
			st := &d.ss[k]
			for st.next < len(accs) {
				r := st.held
				if r == nil {
					if st.inflight >= window && yield {
						left = true
						continue streams
					}
					for st.inflight >= window {
						if !d.step(limit) {
							return false
						}
					}
					i := st.next
					if pol.atBarrier(i) && i != pol.StartIndex && !d.barrier(pol, i) {
						return false
					}
					if keepGoing != nil && !keepGoing() {
						return false
					}
					r = d.request(accs[i], st)
				}
				for !d.sys.Submit(r) {
					if yield {
						st.held = r
						left = true
						continue streams
					}
					if !d.step(limit) {
						return false
					}
				}
				st.held = nil
				st.next++
				st.inflight++
				got = true
			}
		}
		if !left {
			return true
		}
		if !got && !d.step(limit) {
			return false
		}
	}
}

// step fires the engine's next event due by limit and reports whether there
// was one; with no limit, an empty engine panics (see issue).
func (d *Driver) step(limit sim.Cycle) bool {
	if d.eng.StepUntil(limit) {
		return true
	}
	if limit == sim.Never {
		panic("mem: stream stalled with no pending events (model deadlock)")
	}
	return false
}

// drain steps the engine until every stream's requests have completed.
func (d *Driver) drain() {
	for k := range d.ss {
		for d.ss[k].inflight > 0 {
			d.step(sim.Never)
		}
	}
}

// barrier is pol's checkpoint barrier i: it drains the streams, runs the
// engine dry, then hands the idle cut to the sink. The drain is executed
// even with a nil sink so barrier placement — part of the plan — perturbs a
// non-checkpointing run identically. It reports false when the sink
// failed, which aborts the run.
func (d *Driver) barrier(pol *CkptPolicy, i int) bool {
	d.drain()
	d.eng.Run()
	if pol.Sink != nil {
		if err := pol.Sink(i); err != nil {
			d.ckptErr = err
			return false
		}
	}
	return true
}

// RunChain issues accesses strictly one at a time: access i+1 is submitted
// only once access i completed. It returns the per-access latency in cycles.
// This is the timing discipline of a pointer-chasing load loop, where the
// next address depends on the loaded value.
func (d *Driver) RunChain(accs []Access) []sim.Cycle {
	d.open(1)
	d.lats = make([]sim.Cycle, 0, len(accs))
	d.issue([][]Access{accs}, 1, sim.Never, nil, nil)
	d.drain()
	lats := d.lats
	d.lats = nil
	return lats
}

// ChainResult summarizes a RunChain run in wall-clock terms.
type ChainResult struct {
	Latencies []sim.Cycle
	// TotalCycles is the span from first submit to last completion.
	TotalCycles sim.Cycle
}

// RunChainTimed is RunChain plus the total elapsed cycles.
func (d *Driver) RunChainTimed(accs []Access) ChainResult {
	start := d.eng.Now()
	lats := d.RunChain(accs)
	return ChainResult{Latencies: lats, TotalCycles: d.eng.Now() - start}
}

// RunWindow issues accesses keeping up to window requests outstanding, the
// discipline of a store/streaming loop limited by CPU memory-level
// parallelism. It returns the total cycles from first submit until the last
// completion (all requests drained).
func (d *Driver) RunWindow(accs []Access, window int) sim.Cycle {
	elapsed, _ := d.RunWindowChecked(accs, window, nil)
	return elapsed
}

// RunWindowChecked is RunWindow with a cooperative cancellation hook: when
// keepGoing is non-nil it is polled before each access is first offered,
// and a false return abandons the remaining accesses after draining what
// is already in flight. The second result reports whether the whole stream
// was issued. A run that completes has timing identical to RunWindow (the
// hook never touches the engine), which is what lets nvmserved enforce
// per-job timeouts without perturbing results.
func (d *Driver) RunWindowChecked(accs []Access, window int, keepGoing func() bool) (sim.Cycle, bool) {
	ss := d.open(1)
	start := d.eng.Now()
	if d.ckpt != nil && d.ckpt.StartIndex > 0 {
		// Resuming from a snapshot: the accesses before StartIndex already ran
		// in the captured prefix, and the run's true start cycle was restored
		// by LoadState.
		ss[0].next = d.ckpt.StartIndex
		start = d.runStart
	} else {
		d.runStart = start
	}
	completed := d.issue([][]Access{accs}, window, sim.Never, d.ckpt, keepGoing)
	d.drain()
	return d.eng.Now() - start, completed
}

// RunStreams issues several access streams into the system at once, each
// keeping up to window requests outstanding: the access pattern of threads
// sharing one memory system. It returns the cycles from the first submit
// until every stream's last completion.
func (d *Driver) RunStreams(streams [][]Access, window int) sim.Cycle {
	d.open(len(streams))
	start := d.eng.Now()
	d.issue(streams, window, sim.Never, nil, nil)
	d.drain()
	return d.eng.Now() - start
}

// RunWindowUntil issues accs as RunWindow does until cycle cut: once no
// engine event is due by the cut it stops, with the parked ticks up to the
// cut passed and nothing past it fired. It never drains: the requests in
// flight stay pending, so the driver must not run again on this system. It
// returns how many accesses were accepted; a windowed stream is accepted in
// order, so those are accs[:n]. A power-fail replay is built on it.
func (d *Driver) RunWindowUntil(accs []Access, window int, cut sim.Cycle) int {
	ss := d.open(1)
	d.issue([][]Access{accs}, window, cut, nil, nil)
	return ss[0].next
}

// Fence submits an OpFence and runs until it completes, guaranteeing all
// previously submitted stores are durable.
func (d *Driver) Fence() sim.Cycle {
	lats := d.RunChain([]Access{{Op: OpFence}})
	return lats[0]
}

// BandwidthGBs converts (bytes moved, elapsed cycles) into GB/s given the
// system clock.
func BandwidthGBs(sys System, bytes uint64, elapsed sim.Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	ns := ToNs(sys, elapsed)
	return float64(bytes) / ns // bytes/ns == GB/s
}
