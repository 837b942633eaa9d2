// Package vans assembles the Validated cycle-Accurate NVRAM Simulator: an
// integrated memory controller (WPQ/RPQ, DDR-T bus, 4KB interleaver) over
// one or more Optane DIMM models (LSQ, RMW buffer, AIT, wear-leveling,
// 3D-XPoint media), in either App Direct mode (persistent, CPU loads/stores
// reach the NVDIMM) or Memory mode (a DRAM near-cache fronts the NVDIMM and
// persistence is not guaranteed).
package vans

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/imc"
	"repro/internal/mem"
	"repro/internal/nvdimm"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Mode selects the Optane DIMM operating mode.
type Mode uint8

const (
	// AppDirect exposes the NVDIMM as persistent memory.
	AppDirect Mode = iota
	// MemoryMode uses DRAM as a direct-mapped cache over the NVDIMM.
	MemoryMode
)

// String names the mode.
func (m Mode) String() string {
	if m == MemoryMode {
		return "Memory"
	}
	return "AppDirect"
}

// Config configures a whole VANS instance.
type Config struct {
	// DIMMs is the NVDIMM count (1 or 6 in the paper's experiments).
	DIMMs int
	// Interleaved enables 4KB multi-DIMM interleaving.
	Interleaved bool
	// Mode selects App Direct or Memory mode.
	Mode Mode
	// NV configures each NVDIMM identically.
	NV nvdimm.Config
	// IMC configures the memory controller.
	IMC imc.Config
	// DRAMCacheBytes sizes the Memory-mode near cache (per system).
	DRAMCacheBytes uint64
	// Seed drives stochastic choices (wear-leveling partners).
	Seed uint64
	// Functional enables data-content tracking end to end.
	Functional bool
	// Fault configures deterministic fault injection (zero value: disabled).
	Fault fault.Spec
	// FaultAttempt is the retry attempt number; transient faults fire only
	// on attempt 0, so a retried run deterministically succeeds.
	FaultAttempt int
	// Obs, when set, wires the whole stack (iMC, DIMMs, media, on-DIMM DRAM,
	// wear-leveler) into the observability registry. The system builds its
	// own child context, so one parent Obs can safely serve parallel systems.
	// Runtime-only: never serialized, never part of a config hash.
	Obs *obs.Obs `json:"-"`
}

// DefaultConfig returns a single non-interleaved App Direct DIMM, the
// configuration LENS profiles in Section III.
func DefaultConfig() Config {
	return Config{
		DIMMs: 1,
		Mode:  AppDirect,
		NV:    nvdimm.DefaultConfig(),
		IMC:   imc.DefaultConfig(),
		Seed:  1,
	}
}

// Interleaved6 returns the 6-DIMM interleaved configuration of Figure 9b.
func Interleaved6() Config {
	cfg := DefaultConfig()
	cfg.DIMMs = 6
	cfg.Interleaved = true
	return cfg
}

// System is the assembled simulator; it implements mem.System.
type System struct {
	eng   *sim.Engine
	cfg   Config
	imc   *imc.IMC
	dimms []*nvdimm.DIMM
	cache *nearCache // Memory mode only
	o     *obs.Obs   // this system's child observability context (may be nil)

	// readDone / writeDone complete the *mem.Request passed as their arg
	// (writeDone also ends fences). They are bound once per system, so
	// Submit allocates nothing — not even when the iMC refuses the request
	// and the driver retries.
	readDone  func(any, error)
	writeDone func(any)
}

// New builds a System from cfg (zero fields defaulted).
func New(cfg Config) *System {
	if cfg.DIMMs == 0 {
		cfg.DIMMs = 1
	}
	if cfg.NV.LSQSlots == 0 && cfg.NV.RMWEntries == 0 {
		cfg.NV = nvdimm.DefaultConfig()
	}
	cfg.NV.Functional = cfg.NV.Functional || cfg.Functional
	cfg.IMC.Interleaved = cfg.Interleaved
	eng := sim.NewEngine()
	s := &System{eng: eng, cfg: cfg}
	s.readDone = func(a any, err error) { a.(*mem.Request).CompleteErr(eng.Now(), err) }
	s.writeDone = func(a any) { a.(*mem.Request).Complete(eng.Now()) }
	if cfg.Obs != nil {
		s.o = cfg.Obs.Child()
		s.o.AdoptEngine(eng)
		cfg.IMC.Obs = s.o
	}
	for i := 0; i < cfg.DIMMs; i++ {
		nvCfg := cfg.NV
		if s.o != nil {
			nvCfg.Obs = s.o
			nvCfg.ObsName = fmt.Sprintf("dimm%d", i)
		}
		if cfg.Fault.Enabled() {
			// Each DIMM gets its own injector with a derived seed so fault
			// placement is deterministic regardless of DIMM count.
			sp := cfg.Fault
			if sp.Seed == 0 {
				sp.Seed = 1
			}
			sp.Seed += uint64(i) * 0x9e3779b9
			nvCfg.Injector = fault.NewInjector(sp, cfg.FaultAttempt)
		}
		s.dimms = append(s.dimms, nvdimm.New(eng, nvCfg, cfg.Seed+uint64(i)*7919))
	}
	s.imc = imc.New(eng, cfg.IMC, s.dimms)
	if cfg.Mode == MemoryMode {
		size := cfg.DRAMCacheBytes
		if size == 0 {
			size = 4 << 30
		}
		s.cache = newNearCache(eng, s.imc, size)
	}
	return s
}

// Engine implements mem.System.
func (s *System) Engine() *sim.Engine { return s.eng }

// CyclesPerNano implements mem.System.
func (s *System) CyclesPerNano() float64 { return dram.CyclesPerNano }

// IMC exposes the memory controller.
func (s *System) IMC() *imc.IMC { return s.imc }

// Obs returns this system's observability context (nil when Config.Obs was
// not set).
func (s *System) Obs() *obs.Obs { return s.o }

// DIMMs exposes the NVDIMM models.
func (s *System) DIMMs() []*nvdimm.DIMM { return s.dimms }

// Cache exposes the Memory-mode near cache (nil in App Direct).
func (s *System) Cache() *nearCache { return s.cache }

// Drained implements mem.System.
func (s *System) Drained() bool {
	if s.imc.Busy() {
		return false
	}
	return s.cache == nil || !s.cache.busy()
}

// Submit implements mem.System.
func (s *System) Submit(r *mem.Request) bool {
	if s.cfg.Mode == MemoryMode {
		return s.submitMemoryMode(r)
	}
	switch r.Op {
	case mem.OpRead:
		ok := s.imc.Read(r.Addr, s.readDone, r)
		if ok {
			r.Issued = s.eng.Now()
		}
		return ok
	case mem.OpWrite, mem.OpWriteNT, mem.OpClwb:
		ok := s.imc.Write(r.Addr, r.Data, s.writeDone, r)
		if ok {
			r.Issued = s.eng.Now()
		}
		return ok
	case mem.OpFence:
		r.Issued = s.eng.Now()
		s.imc.Fence(s.writeDone, r)
		return true
	default:
		return false
	}
}

func (s *System) submitMemoryMode(r *mem.Request) bool {
	switch r.Op {
	case mem.OpRead:
		ok := s.cache.read(r.Addr, func(err error) { s.readDone(r, err) })
		if ok {
			r.Issued = s.eng.Now()
		}
		return ok
	case mem.OpWrite, mem.OpWriteNT, mem.OpClwb:
		ok := s.cache.write(r.Addr, func() { s.writeDone(r) })
		if ok {
			r.Issued = s.eng.Now()
		}
		return ok
	case mem.OpFence:
		// Memory mode offers no persistence; a fence is ordering-only and
		// completes once the cache's miss traffic drains.
		r.Issued = s.eng.Now()
		var poll func()
		poll = func() {
			if !s.cache.busy() && !s.imc.Busy() {
				r.Complete(s.eng.Now())
				return
			}
			s.eng.After(16, poll)
		}
		s.eng.After(1, poll)
		return true
	default:
		return false
	}
}

// ReadData returns functional contents through DIMM routing (test support;
// App Direct only).
func (s *System) ReadData(addr uint64, n int) []byte {
	ch, local := s.imcRoute(addr)
	return s.dimms[ch].ReadData(local, n)
}

func (s *System) imcRoute(addr uint64) (int, uint64) {
	return s.imc.Route(addr)
}

// MediaStats sums media counters across DIMMs.
func (s *System) MediaStats() (reads, writes uint64) {
	for _, d := range s.dimms {
		st := d.Media().Stats()
		reads += st.Reads
		writes += st.Writes
	}
	return reads, writes
}

// FaultStats sums injected-fault counters across DIMMs.
func (s *System) FaultStats() (poison, stalls uint64) {
	for _, d := range s.dimms {
		st := d.Stats()
		poison += st.MediaPoison
		stalls += st.FaultStalls
	}
	return poison, stalls
}

// Migrations sums wear-leveling migrations across DIMMs.
func (s *System) Migrations() uint64 {
	var n uint64
	for _, d := range s.dimms {
		n += d.Stats().Migrations
	}
	return n
}
