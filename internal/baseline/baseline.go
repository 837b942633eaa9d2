// Package baseline implements the comparison systems of Figures 1, 3, and
// 11: a PMEP-style delay-injection emulator (NVRAM as a uniformly slower
// DRAM with throttled bandwidth) and slower-DRAM simulator models in the
// style of DRAMSim2-DDR3, Ramulator-DDR4, and Ramulator-PCM — DRAM-
// architecture timing with substituted device parameters, which is exactly
// the modeling shortcut the paper shows fails to match real Optane DIMMs.
package baseline

import (
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// PMEPParams configures the PMEP-style emulator: flat injected latencies and
// throttled bandwidth, independent of access history (so its pointer-chasing
// curve is flat — the discrepancy in Figure 1b).
type PMEPParams struct {
	LoadNs    float64
	StoreNs   float64
	StoreNTNs float64
	// Occupancies in ns/64B: bandwidth throttling.
	OccLoad    float64
	OccStore   float64
	OccStoreNT float64
	NoisePct   float64
}

// DefaultPMEP models the paper's PMEP setup (6-DIMM equivalent): load and
// store bandwidth high, non-temporal stores *lower* — the inversion relative
// to real Optane that Figure 1a highlights.
func DefaultPMEP() PMEPParams {
	return PMEPParams{
		LoadNs: 165, StoreNs: 95, StoreNTNs: 210,
		OccLoad: 9.2, OccStore: 9.8, OccStoreNT: 20.5,
		NoisePct: 1.5,
	}
}

// PMEP is the delay-injection emulator; it implements mem.System.
type PMEP struct {
	eng      *sim.Engine
	p        PMEPParams
	rng      *sim.RNG
	pipeFree sim.Cycle
	inflight int
	// complete ends the *mem.Request passed as arg; bound once so a submit
	// schedules it without a closure.
	complete func(any)
}

// NewPMEP builds the emulator.
func NewPMEP(p PMEPParams, seed uint64) *PMEP {
	if p.LoadNs == 0 {
		p = DefaultPMEP()
	}
	m := &PMEP{eng: sim.NewEngine(), p: p, rng: sim.NewRNG(seed)}
	m.complete = m.finish
	return m
}

// Engine implements mem.System.
func (p *PMEP) Engine() *sim.Engine { return p.eng }

// CyclesPerNano implements mem.System.
func (p *PMEP) CyclesPerNano() float64 { return dram.CyclesPerNano }

// Drained implements mem.System.
func (p *PMEP) Drained() bool { return p.inflight == 0 }

// Submit implements mem.System.
func (p *PMEP) Submit(r *mem.Request) bool {
	var latNs, occNs float64
	switch r.Op {
	case mem.OpRead:
		latNs, occNs = p.p.LoadNs, p.p.OccLoad
	case mem.OpWrite, mem.OpClwb:
		latNs, occNs = p.p.StoreNs, p.p.OccStore
	case mem.OpWriteNT:
		latNs, occNs = p.p.StoreNTNs, p.p.OccStoreNT
	case mem.OpFence:
		latNs, occNs = 120, 0
	default:
		return false
	}
	if p.p.NoisePct > 0 {
		latNs *= 1 + (p.rng.Float64()*2-1)*p.p.NoisePct/100
	}
	now := p.eng.Now()
	r.Issued = now
	start := now
	if p.pipeFree > start {
		start = p.pipeFree
	}
	p.pipeFree = start + dram.NsToCycles(occNs)
	done := start + dram.NsToCycles(latNs)
	if done <= now {
		done = now + 1
	}
	p.inflight++
	p.eng.ScheduleFn(done, p.complete, r)
	return true
}

// finish completes one request at its scheduled cycle.
func (p *PMEP) finish(a any) {
	p.inflight--
	a.(*mem.Request).Complete(p.eng.Now())
}

// SimKind selects a slower-DRAM simulator flavor for SlowDRAM.
type SimKind uint8

const (
	// DRAMSim2DDR3 mimics DRAMSim2 with DDR3 timing.
	DRAMSim2DDR3 SimKind = iota
	// RamulatorDDR4 mimics Ramulator's DDR4 model.
	RamulatorDDR4
	// RamulatorPCM mimics Ramulator's PCM model: DRAM architecture with
	// slower, asymmetric device timing — flat pointer-chasing latency
	// around 250ns (Figure 3b).
	RamulatorPCM
)

// String names the simulator flavor.
func (k SimKind) String() string {
	switch k {
	case DRAMSim2DDR3:
		return "DRAMSim2-DDR3"
	case RamulatorDDR4:
		return "Ramulator-DDR4"
	case RamulatorPCM:
		return "Ramulator-PCM"
	default:
		return "unknown"
	}
}

// Timing returns the device timing used by the flavor.
func (k SimKind) Timing() dram.Timing {
	switch k {
	case DRAMSim2DDR3:
		return dram.DDR31600()
	case RamulatorPCM:
		// PCM read ~ array-activation dominated; closing a clean row is
		// nearly free (no restore needed), while write recovery is long.
		t := dram.DDR42666()
		t.TRCD = 200 // ~150ns array read into the row buffer
		t.TCL = 60
		t.TRP = 40
		t.TRAS = 264
		t.TWR = 500
		return t
	default:
		return dram.DDR42666()
	}
}

// SlowDRAM is a conventional DRAM-architecture simulator with substituted
// timing; it implements mem.System. Stores are posted through a small write
// queue (conventional memory-controller behavior), so its store latency has
// none of the Optane structure.
type SlowDRAM struct {
	kind SimKind
	ctrl *dram.Controller
	eng  *sim.Engine

	wq       int
	wqMax    int
	inflight int

	// Completions bound once by NewSlowDRAM, so an access allocates no
	// closure: readDone and posted complete the *mem.Request passed as
	// their arg, written retires a drained write, fencePoll completes the
	// fence passed as its arg once the system drains. retries recycles the
	// writes a full controller queue turned away.
	readDone  func(any)
	posted    func(any)
	written   func(any)
	fencePoll func(any)
	retries   sim.FreeList[slowRetry]
}

// slowRetry is a posted write waiting for room in the controller queue.
type slowRetry struct {
	s    *SlowDRAM
	addr uint64
}

// slowPushWrite offers a waiting write to the controller again, every 16
// cycles until it takes it.
func slowPushWrite(a any) {
	w := a.(*slowRetry)
	s := w.s
	if !s.ctrl.Schedule(w.addr, true, s.written, nil) {
		s.eng.AfterFn(16, slowPushWrite, w)
		return
	}
	s.retries.Put(w)
}

// NewSlowDRAM builds the flavor with a fresh engine.
func NewSlowDRAM(kind SimKind) *SlowDRAM {
	eng := sim.NewEngine()
	cfg := dram.DefaultConfig()
	cfg.Timing = kind.Timing()
	cfg.Policy = dram.FRFCFS
	cfg.RefreshEnabled = kind != RamulatorPCM // PCM needs no refresh
	// The PCM model keeps no row buffer open (closed-page), giving the flat
	// latency curve of Figure 3b.
	cfg.ClosedPage = kind == RamulatorPCM
	s := &SlowDRAM{kind: kind, ctrl: dram.NewController(eng, cfg), eng: eng, wqMax: 16}
	s.readDone = func(a any) {
		s.inflight--
		a.(*mem.Request).Complete(eng.Now())
	}
	s.posted = func(a any) { a.(*mem.Request).Complete(eng.Now()) }
	s.written = func(any) { s.wq-- }
	s.fencePoll = func(a any) {
		if s.wq != 0 || !s.ctrl.Drained() {
			eng.AfterFn(16, s.fencePoll, a)
			return
		}
		a.(*mem.Request).Complete(eng.Now())
	}
	return s
}

// Kind returns the simulator flavor.
func (s *SlowDRAM) Kind() SimKind { return s.kind }

// Engine implements mem.System.
func (s *SlowDRAM) Engine() *sim.Engine { return s.eng }

// CyclesPerNano implements mem.System.
func (s *SlowDRAM) CyclesPerNano() float64 { return dram.CyclesPerNano }

// Drained implements mem.System.
func (s *SlowDRAM) Drained() bool { return s.inflight == 0 && s.wq == 0 && s.ctrl.Drained() }

// Submit implements mem.System.
func (s *SlowDRAM) Submit(r *mem.Request) bool {
	now := s.eng.Now()
	switch r.Op {
	case mem.OpRead:
		if !s.ctrl.Schedule(r.Addr, false, s.readDone, r) {
			return false
		}
		s.inflight++
		r.Issued = now
		return true
	case mem.OpWrite, mem.OpWriteNT, mem.OpClwb:
		if s.wq >= s.wqMax {
			return false
		}
		s.wq++
		r.Issued = now
		// Posted: complete quickly; drain through the controller behind
		// the scenes.
		s.eng.AfterFn(dram.NsToCycles(25), s.posted, r)
		if !s.ctrl.Schedule(r.Addr, true, s.written, nil) {
			w := s.retries.Get()
			*w = slowRetry{s: s, addr: r.Addr}
			s.eng.AfterFn(16, slowPushWrite, w)
		}
		return true
	case mem.OpFence:
		r.Issued = now
		s.eng.AfterFn(1, s.fencePoll, r)
		return true
	default:
		return false
	}
}
