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

// SimKind selects a slower-DRAM simulator flavor for NewSlowDRAM.
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

// NewSlowDRAM builds the flavor: a conventional DRAM-architecture simulator
// with substituted timing, on a fresh engine. It is a one-channel
// dram.MultiChannel whose stores are posted through a 16-entry write queue
// and complete to their issuer after 25 ns (conventional memory-controller
// behavior), so its store latency has none of the Optane structure.
func NewSlowDRAM(kind SimKind) *dram.MultiChannel {
	cfg := dram.DefaultConfig()
	cfg.Timing = kind.Timing()
	cfg.Policy = dram.FRFCFS
	cfg.RefreshEnabled = kind != RamulatorPCM // PCM needs no refresh
	// The PCM model keeps no row buffer open (closed-page), giving the flat
	// latency curve of Figure 3b.
	cfg.ClosedPage = kind == RamulatorPCM
	return dram.NewMultiChannel(dram.MultiChannelConfig{
		Channels: 1, Channel: cfg, WriteQueue: 16, PostedNs: 25})
}
