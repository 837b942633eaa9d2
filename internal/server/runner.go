package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bottleneck"
	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vans"
	"repro/internal/workload"
)

// Result is the deterministic output of one job run. It contains only
// simulation-domain quantities (cycles, counters) — never wall-clock times —
// so identical jobs produce byte-identical results on any worker. That
// property is what makes the result cache sound; the determinism regression
// test pins it.
type Result struct {
	Hash          string        `json:"hash"`
	Accesses      int           `json:"accesses"`
	BytesMoved    uint64        `json:"bytes_moved"`
	ElapsedCycles uint64        `json:"elapsed_cycles"`
	DrainCycles   uint64        `json:"drain_cycles"`
	ElapsedNs     float64       `json:"elapsed_ns"`
	DrainNs       float64       `json:"drain_ns"`
	AvgLatencyNs  float64       `json:"avg_latency_ns"`
	BandwidthGBs  float64       `json:"bandwidth_gbs"`
	Vans          vans.Snapshot `json:"vans"`
	// Obs is the aggregated observability dump: every registry counter and
	// stage-latency histogram across the whole stack. Simulation-domain and
	// deterministic (sorted names, cycle-derived values), so byte-identity
	// of canonical results is preserved.
	Obs *obs.Dump `json:"obs,omitempty"`
	// Verdict is the bottleneck analysis computed from Obs: dominant stage,
	// time attribution, and named regime. Derived purely from the dump, so it
	// inherits the dump's determinism (same job hash => byte-identical
	// verdict). Nil for runs with nothing to attribute (power-fail jobs).
	Verdict *bottleneck.Verdict `json:"verdict,omitempty"`
	// Crash is the crash-consistency report of a power-fail job (nil
	// otherwise). Like everything else here it is simulation-domain only.
	Crash *fault.CrashReport `json:"crash,omitempty"`

	// trace holds the recorded lifecycle trace of a CaptureTrace run.
	// Unexported: never part of the canonical JSON, streamed separately by
	// GET /v1/jobs/{id}/trace.
	trace *obs.Lifecycle
}

// Trace returns the recorded lifecycle trace (nil unless the plan set
// CaptureTrace).
func (r *Result) Trace() *obs.Lifecycle { return r.trace }

// serverTraceLimit caps per-job trace capture in the service: enough to
// follow hundreds of thousands of stage transitions while bounding resident
// memory per cached traced job.
const serverTraceLimit = 1 << 18

// Canonical returns the canonical JSON encoding used for byte-identity
// comparisons across workers.
func (r *Result) Canonical() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic("server: marshaling result: " + err.Error())
	}
	return b
}

// Runner executes jobs. Each scheduler worker owns exactly one Runner, and a
// Runner builds a fresh sim.Engine + vans.System per job: the simulation
// substrate is single-threaded by design and is never shared across
// goroutines, so concurrent jobs are fully isolated and every run is
// deterministic under its plan. A Runner runs one job at a time.
type Runner struct {
	// checkEvery is how many submissions pass between context polls
	// (exported knob for tests; 0 uses a default that keeps cancellation
	// latency well under a millisecond of host time).
	checkEvery int
	// enc encodes every snapshot this Runner takes. Seal copies the payload
	// out, so the buffer is free again after each barrier; it keeps the
	// largest snapshot's capacity for the Runner's life, and later jobs
	// encode without regrowing it.
	enc ckpt.Enc
}

// NewRunner returns a Runner with default settings.
func NewRunner() *Runner { return &Runner{} }

// Run executes the plan to completion or until ctx is done. The returned
// result is independent of which Runner executed it. Run is attempt 0; the
// scheduler retries transient faults through RunAttempt.
func (rn *Runner) Run(ctx context.Context, p *Plan) (*Result, error) {
	return rn.RunAttempt(ctx, p, 0)
}

// RunAttempt executes one retry attempt of the plan. The attempt number
// feeds the fault injector: transient faults fire only on attempt 0, so a
// retried job deterministically succeeds while permanent faults recur.
func (rn *Runner) RunAttempt(ctx context.Context, p *Plan, attempt int) (*Result, error) {
	return rn.RunAttemptCkpt(ctx, p, attempt, nil)
}

// CkptIO wires one run attempt to checkpoint storage. All fields are
// optional; a nil *CkptIO (or the zero value) runs without snapshot I/O —
// though barriers implied by the plan (ckpt_every, warmup) still execute, so
// the result is byte-identical either way.
type CkptIO struct {
	// Resume, when non-nil, is a sealed job snapshot (stamped with the
	// plan's hash) the run restores before issuing anything.
	Resume []byte
	// WarmStart, when non-nil, is a sealed warm snapshot (stamped with the
	// plan's WarmHash) that replaces executing the warmup prefix.
	WarmStart []byte
	// Sink receives the sealed job snapshot captured at each barrier.
	// Returning an error aborts the run.
	Sink func(idx int, snap []byte) error
	// WarmSink receives the sealed warm snapshot captured at the warmup
	// boundary (plans with a warmup only).
	WarmSink func(snap []byte)

	// ResumedFrom reports the access index the run restarted at (0 when it
	// ran from the beginning). WarmStarted reports that the warmup prefix
	// was skipped via WarmStart. Saves counts snapshots handed to Sink.
	ResumedFrom int
	WarmStarted bool
	Saves       int
}

// encodeSnapshot seals the full run state at an idle barrier: a stamp tying
// the snapshot to its plan, the cut's access index, the total access count,
// then driver and system state. The stamp is the job hash for job snapshots
// and the WarmHash for warm snapshots. enc is reset first; one encoder serves
// every barrier of every run on a Runner, since Seal copies the payload out.
func encodeSnapshot(enc *ckpt.Enc, stamp string, idx, total int, d *mem.Driver, sys *vans.System) ([]byte, error) {
	enc.Reset()
	enc.String(stamp)
	enc.U64(uint64(idx))
	enc.U64(uint64(total))
	if err := d.SaveState(enc); err != nil {
		return nil, err
	}
	if err := sys.SaveState(enc); err != nil {
		return nil, err
	}
	return ckpt.Seal(enc.Bytes()), nil
}

// decodeSnapshot restores driver and system state from a sealed snapshot,
// returning the cut index and total access count recorded at capture.
func decodeSnapshot(stamp string, snap []byte, d *mem.Driver, sys *vans.System) (idx, total int, err error) {
	payload, err := ckpt.Open(snap)
	if err != nil {
		return 0, 0, err
	}
	dec := ckpt.NewDec(payload)
	got := dec.String()
	if err := dec.Err(); err != nil {
		return 0, 0, err
	}
	if got != stamp {
		return 0, 0, fmt.Errorf("ckpt: snapshot stamped %q does not match plan %q", got, stamp)
	}
	idx = int(dec.U64())
	total = int(dec.U64())
	if err := d.LoadState(dec); err != nil {
		return 0, 0, err
	}
	if err := sys.LoadState(dec); err != nil {
		return 0, 0, err
	}
	if err := dec.Close(); err != nil {
		return 0, 0, err
	}
	return idx, total, nil
}

// RunAttemptCkpt is RunAttempt with checkpoint I/O. The access stream is the
// warmup prefix (when the plan has one) followed by the main workload; a
// forced barrier sits at the boundary, periodic barriers every CkptEvery
// accesses. Snapshots restore only into the exact plan (and snapshot format
// version) that produced them — the stamp check enforces it.
func (rn *Runner) RunAttemptCkpt(ctx context.Context, p *Plan, attempt int, io *CkptIO) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	accs, window, err := buildAccesses(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("server: workload produced no accesses")
	}
	var warmLen int
	if p.Warmup != nil {
		warmAccs, _, err := buildWorkloadAccesses(*p.Warmup, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("warmup: %v", err)
		}
		if len(warmAccs) == 0 {
			return nil, fmt.Errorf("server: warmup produced no accesses")
		}
		warmLen = len(warmAccs)
		accs = append(warmAccs[:warmLen:warmLen], accs...)
	}
	W := warmLen

	if p.Fault.PowerFailCycle > 0 {
		return rn.runPowerFail(p, accs, window)
	}

	cfg := p.VansConfig()
	cfg.FaultAttempt = attempt
	// Observability context for this attempt. The tracer must attach before
	// vans.New: children copy the hook set at construction.
	o := obs.New()
	var lt *obs.Lifecycle
	if p.CaptureTrace {
		lt = obs.NewLifecycle(dram.CyclesPerNano)
		lt.Limit = serverTraceLimit
		o.Attach(lt)
	}
	cfg.Obs = o
	sys := vans.New(cfg)
	d := mem.NewDriver(sys)
	d.SetObs(o)
	if p.CkptEvery > 0 || W > 0 {
		pol := &mem.CkptPolicy{Every: p.CkptEvery, ForcedAt: W}
		switch {
		case io != nil && io.Resume != nil:
			idx, total, err := decodeSnapshot(p.Hash(), io.Resume, d, sys)
			if err != nil {
				return nil, fmt.Errorf("ckpt: restoring job snapshot: %w", err)
			}
			if total != len(accs) || idx < 1 || idx >= len(accs) {
				return nil, fmt.Errorf("%w: snapshot cut %d/%d does not fit plan with %d accesses",
					ckpt.ErrCorrupt, idx, total, len(accs))
			}
			pol.StartIndex = idx
			io.ResumedFrom = idx
		case io != nil && io.WarmStart != nil && W > 0:
			idx, total, err := decodeSnapshot(p.WarmHash(), io.WarmStart, d, sys)
			if err != nil {
				return nil, fmt.Errorf("ckpt: restoring warm snapshot: %w", err)
			}
			if idx != W || total != W {
				return nil, fmt.Errorf("%w: warm snapshot cut %d/%d, want %d/%d",
					ckpt.ErrCorrupt, idx, total, W, W)
			}
			pol.StartIndex = W
			io.WarmStarted = true
		}
		if io != nil && (io.Sink != nil || io.WarmSink != nil) {
			total := len(accs)
			pol.Sink = func(i int) error {
				if i == W && W > 0 && io.WarmSink != nil {
					snap, err := encodeSnapshot(&rn.enc, p.WarmHash(), W, W, d, sys)
					if err != nil {
						return err
					}
					io.WarmSink(snap)
				}
				if io.Sink == nil {
					return nil
				}
				snap, err := encodeSnapshot(&rn.enc, p.Hash(), i, total, d, sys)
				if err != nil {
					return err
				}
				io.Saves++
				return io.Sink(i, snap)
			}
		}
		d.SetCkpt(pol)
	}
	every := rn.checkEvery
	if every == 0 {
		every = 1024
	}
	crash := p.Fault.CrashAccess
	n := uint64(0)
	keepGoing := func() bool {
		n++
		if crash != 0 && n == crash {
			// Chaos knob: blow up the engine goroutine mid-run to drill the
			// scheduler's worker panic recovery.
			panic(fault.CrashPanicMsg(crash))
		}
		if n%uint64(every) != 0 {
			return true
		}
		return ctx.Err() == nil
	}
	elapsed, ok := d.RunWindowChecked(accs, window, keepGoing)
	if !ok {
		if cerr := d.CkptErr(); cerr != nil {
			return nil, fmt.Errorf("ckpt: snapshot sink failed: %w", cerr)
		}
		return nil, ctx.Err()
	}
	fenceStart := sys.Engine().Now()
	d.Fence()
	drain := sys.Engine().Now() - fenceStart
	if ferr := d.Err(); ferr != nil {
		// Injected faults surface as typed errors, never panics. The wrap
		// preserves the fault class so the scheduler's retry policy can
		// distinguish transient from permanent.
		return nil, fmt.Errorf("server: %d of %d accesses faulted: %w",
			d.Faults(), len(accs), ferr)
	}

	var bytesMoved uint64
	for _, a := range accs {
		sz := uint64(a.Size)
		if sz == 0 {
			sz = mem.CacheLine
		}
		bytesMoved += sz
	}
	res := &Result{
		Hash:          p.Hash(),
		Accesses:      len(accs),
		BytesMoved:    bytesMoved,
		ElapsedCycles: uint64(elapsed),
		DrainCycles:   uint64(drain),
		ElapsedNs:     mem.ToNs(sys, elapsed),
		DrainNs:       mem.ToNs(sys, drain),
		AvgLatencyNs:  mem.ToNs(sys, elapsed) / float64(len(accs)),
		BandwidthGBs:  mem.BandwidthGBs(sys, bytesMoved, elapsed+drain),
		Vans:          sys.Snapshot(),
		Obs:           o.Dump(),
		trace:         lt,
	}
	res.Verdict = bottleneck.Analyze(res.Obs)
	return res, nil
}

// runPowerFail executes a power-fail job: replay to the cut cycle, recover,
// verify the ADR contract, and report. The report replaces the usual timing
// result (a cut run has no steady-state bandwidth to report).
func (rn *Runner) runPowerFail(p *Plan, accs []mem.Access, window int) (*Result, error) {
	cfg := p.VansConfig()
	rep, err := vans.CheckPowerFail(cfg, accs, window,
		sim.Cycle(p.Fault.PowerFailCycle), p.Seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Hash:          p.Hash(),
		Accesses:      len(accs),
		ElapsedCycles: rep.EndCycle,
		Crash:         &rep,
	}, nil
}

// RunSpec compiles and executes spec synchronously on the calling
// goroutine. It is the single-shot entry point shared by cmd/vans and the
// tests that compare daemon output against single-threaded replay.
func RunSpec(ctx context.Context, spec JobSpec) (*Result, error) {
	p, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return NewRunner().Run(ctx, p)
}

// buildAccesses materializes the plan's main access stream and the replay
// window.
func buildAccesses(p *Plan) ([]mem.Access, int, error) {
	accs, window, err := buildWorkloadAccesses(p.mainWorkload(), p.Seed)
	if err != nil {
		return nil, 0, err
	}
	if window == 0 {
		window = p.Window
	}
	return accs, window, nil
}

// buildWorkloadAccesses materializes one workload's access stream. The
// returned window is 1 when the workload forces a dependent chain (chase)
// and 0 when the plan's window applies.
func buildWorkloadAccesses(w WorkloadPlan, seed uint64) ([]mem.Access, int, error) {
	switch w.Kind {
	case KindChase:
		// A chase is a dependent chain: window forced to 1.
		return workload.ChaseAccesses(w.Region, w.MaxSteps, seed), 1, nil
	case KindSeq:
		return workload.SeqAccesses(w.Bytes, seqOp(w.Op)), 0, nil
	case KindTrace:
		accs, err := trace.ReadAccesses(strings.NewReader(w.Trace))
		if err != nil {
			return nil, 0, err
		}
		return accs, 0, nil
	case KindCloud:
		return captureCloud(w, seed), 0, nil
	default:
		return nil, 0, fmt.Errorf("server: unknown workload kind %q", w.Kind)
	}
}

func seqOp(name string) mem.Op {
	switch name {
	case "store":
		return mem.OpWrite
	case "store-nt":
		return mem.OpWriteNT
	default:
		return mem.OpRead
	}
}

// captureCloud replays a named workload through the CPU substrate over a
// capture system, recording the post-cache memory trace (the tracegen flow),
// and returns it as a driver stream for the job's own system.
func captureCloud(wp WorkloadPlan, seed uint64) []mem.Access {
	sys := newCaptureSystem()
	cpu.New(cpu.DefaultConfig(), sys).Run(cloudWorkload(wp, seed))
	return sys.accs
}

// cloudWorkload builds the instruction stream of a cloud plan: a SPEC bench
// at the plan's footprint, or one of the Section V workloads.
func cloudWorkload(wp WorkloadPlan, seed uint64) cpu.Workload {
	if b, ok := workload.SPECBenchByName(wp.Name); ok {
		b.FootprintMB = float64(wp.Footprint) / (1 << 20)
		return workload.SPEC(b, wp.Instructions, seed)
	}
	return workload.Cloud(wp.Name, workload.CloudOptions{
		Instructions: wp.Instructions,
		Seed:         seed,
		Footprint:    wp.Footprint,
	})
}

// captureSystem is the memory under a cloud capture: it records every
// request it is offered, accepts it, and completes it one cycle later. The
// core sends its post-cache requests in program order whatever the memory's
// timing (DESIGN.md §9 "CPU substrate"), so a timing model here would change
// only the capture's cost, not one access of the trace.
type captureSystem struct {
	eng      *sim.Engine
	accs     []mem.Access
	inflight int
	done     func(any) // s.complete, bound once so Submit allocates no closure
}

func newCaptureSystem() *captureSystem {
	s := &captureSystem{eng: sim.NewEngine()}
	s.done = s.complete
	return s
}

func (s *captureSystem) Engine() *sim.Engine    { return s.eng }
func (s *captureSystem) CyclesPerNano() float64 { return 1 }
func (s *captureSystem) Drained() bool          { return s.inflight == 0 }

// Submit records and accepts r; the request rides as its completion
// event's argument.
func (s *captureSystem) Submit(r *mem.Request) bool {
	s.accs = append(s.accs, mem.Access{Op: r.Op, Addr: r.Addr, Size: r.Size})
	r.Issued = s.eng.Now()
	s.inflight++
	s.eng.ScheduleFn(r.Issued+1, s.done, r)
	return true
}

func (s *captureSystem) complete(a any) {
	s.inflight--
	a.(*mem.Request).Complete(s.eng.Now())
}
