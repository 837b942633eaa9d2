// Package optane is the empirical reference model of a real Optane
// DIMM-attached server: a behavioral twin whose *measured* response surface
// (from the paper's published characterization) stands in for the physical
// machine this repository cannot access. It plays the role the real server
// plays in the paper: the profiling target LENS reverse-engineers and the
// ground truth VANS is validated against.
//
// The model is deliberately behavioral, not mechanistic: small LRU
// structures reproduce the capacity/granularity effects LENS observes
// (512B/4KB write knees, 16KB/16MB read knees, 256B/4KB amplification,
// 4KB interleaving, ~14k-write wear tails), while the latency and bandwidth
// numbers at each tier are taken from the paper's figures rather than
// derived from a microarchitecture. VANS (internal/vans) is the mechanistic
// model; agreement between the two is the validation result of Section IV.
package optane

import (
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Params holds the measured response surface. All latencies in ns; all
// bandwidth occupancies in ns per 64B transfer (64/occupancy = GB/s).
type Params struct {
	// Read latency tiers by resident structure (Figure 1b / 5a).
	ReadRMWNs   float64 // region fits the 16KB RMW buffer
	ReadAITNs   float64 // region fits the 16MB AIT buffer
	ReadMediaNs float64 // region exceeds the AIT buffer

	// Write latency tiers (Figure 5a store curve).
	WriteWPQNs   float64 // region fits the 512B WPQ
	WriteLSQNs   float64 // region fits the 4KB LSQ
	WriteRMWNs   float64 // region fits the RMW buffer
	WriteAITNs   float64 // region fits the AIT buffer
	WriteMediaNs float64 // beyond

	// Read amplification latency factors at sub-granularity blocks
	// (Figure 6): accessing with blocks below the structure granularity
	// costs extra transfers.
	RMWGrain uint64 // 256
	AITGrain uint64 // 4096

	// Single-thread bandwidth occupancies, 1-DIMM (Figure 1a right bars
	// rescaled to one DIMM) in ns/64B.
	OccLoad1 float64
	OccStNT1 float64
	OccSt1   float64

	// InterleaveBytes and DIMM scaling: with N interleaved DIMMs the
	// occupancies divide by min(N, OccScaleMax).
	InterleaveBytes uint64
	OccScaleMax     float64

	// Structure capacities (what LENS recovers).
	WPQBytes uint64
	LSQBytes uint64
	RMWBytes uint64
	AITBytes uint64

	// Wear-leveling tail behavior (Figure 7b/7c).
	WearBlock   uint64  // 64KB
	TailEvery   uint64  // ~14,000 writes per wear block
	TailStallNs float64 // ~55us added to the triggering write

	// RaW penalty: bus turnaround on direction switches (Figure 5c).
	TurnaroundNs float64
	// FenceBaseNs + per-dirty-entry drain models mfence + LSQ flush.
	FenceBaseNs  float64
	FenceEntryNs float64

	// NoisePct adds deterministic measurement noise (error envelopes).
	NoisePct float64
}

// DefaultParams encodes the paper's measured values.
func DefaultParams() Params {
	return Params{
		ReadRMWNs: 168, ReadAITNs: 305, ReadMediaNs: 415,
		WriteWPQNs: 92, WriteLSQNs: 155, WriteRMWNs: 250,
		WriteAITNs: 305, WriteMediaNs: 385,
		RMWGrain: 256, AITGrain: 4096,
		OccLoad1: 27, OccStNT1: 56, OccSt1: 118,
		InterleaveBytes: 4096, OccScaleMax: 4.2,
		WPQBytes: 512, LSQBytes: 4 << 10, RMWBytes: 16 << 10, AITBytes: 16 << 20,
		WearBlock: 64 << 10, TailEvery: 14000, TailStallNs: 55000,
		TurnaroundNs: 35, FenceBaseNs: 320, FenceEntryNs: 45,
		NoisePct: 2.5,
	}
}

// Config configures a reference system instance.
type Config struct {
	Params      Params
	DIMMs       int
	Interleaved bool
	Seed        uint64

	// Obs, when set, registers the reference model's counters with the
	// observability registry and enables hook emission. Runtime-only.
	Obs *obs.Obs `json:"-"`
}

// DefaultConfig is the 1-DIMM non-interleaved App Direct setup LENS
// profiles.
func DefaultConfig() Config {
	return Config{Params: DefaultParams(), DIMMs: 1, Seed: 1}
}

// lruSet is a behavioral capacity tracker: an LRU set of the grain-aligned
// blocks an address stream touched.
type lruSet struct {
	lru   sim.LRU[struct{}]
	grain uint64
}

func newLRUSet(capacity, grain uint64) lruSet {
	s := lruSet{grain: grain}
	s.lru.Init(int(capacity / grain))
	return s
}

func (s *lruSet) key(addr uint64) uint64 { return addr - addr%s.grain }

// touch inserts or refreshes the block containing addr.
func (s *lruSet) touch(addr uint64) { s.lru.Put(s.key(addr), struct{}{}) }

func (s *lruSet) contains(addr uint64) bool { return s.lru.Contains(s.key(addr)) }

// System is the reference machine; it implements mem.System.
type System struct {
	eng *sim.Engine
	cfg Config
	p   Params
	rng *sim.RNG

	// Behavioral structures per DIMM.
	wpq []lruSet
	lsq []lruSet
	rmw []lruSet
	ait []lruSet

	// pipeFree is the aggregated serving pipe: per-op occupancy divided by
	// the interleave scaling models the combined DIMM bandwidth.
	pipeFree sim.Cycle

	// wear counts writes per 64KB block (global address space).
	wear map[uint64]uint64

	// lastWrite drives bus turnaround penalties.
	lastWrite bool

	inflight int
	// complete ends the *mem.Request passed as arg; bound once in New so a
	// submit schedules it without a closure.
	complete func(any)

	// Tails records injected tail events (iteration analysis).
	Tails uint64

	reads  uint64
	writes uint64

	o    *obs.Obs
	comp string
}

// New builds a reference system.
func New(cfg Config) *System {
	if cfg.DIMMs == 0 {
		cfg.DIMMs = 1
	}
	if cfg.Params.RMWGrain == 0 {
		cfg.Params = DefaultParams()
	}
	s := &System{
		eng:  sim.NewEngine(),
		cfg:  cfg,
		p:    cfg.Params,
		rng:  sim.NewRNG(cfg.Seed ^ 0x9e3779b9),
		wear: make(map[uint64]uint64),
	}
	s.complete = s.finish
	for i := 0; i < cfg.DIMMs; i++ {
		s.wpq = append(s.wpq, newLRUSet(s.p.WPQBytes, 64))
		s.lsq = append(s.lsq, newLRUSet(s.p.LSQBytes, 64))
		s.rmw = append(s.rmw, newLRUSet(s.p.RMWBytes, s.p.RMWGrain))
		s.ait = append(s.ait, newLRUSet(s.p.AITBytes, s.p.AITGrain))
	}
	if cfg.Obs != nil {
		o := cfg.Obs.Child()
		o.AdoptEngine(s.eng)
		s.o = o
		s.comp = "optane"
		o.RegisterPtr(s.comp, "reads", &s.reads)
		o.RegisterPtr(s.comp, "writes", &s.writes)
		o.RegisterPtr(s.comp, "tails", &s.Tails)
	}
	return s
}

// Engine implements mem.System.
func (s *System) Engine() *sim.Engine { return s.eng }

// CyclesPerNano implements mem.System.
func (s *System) CyclesPerNano() float64 { return dram.CyclesPerNano }

// Drained implements mem.System.
func (s *System) Drained() bool { return s.inflight == 0 }

// Config returns the instance configuration.
func (s *System) Config() Config { return s.cfg }

// dimm routes an address to a DIMM index and local address.
func (s *System) dimm(addr uint64) (int, uint64) {
	n := uint64(s.cfg.DIMMs)
	if n <= 1 || !s.cfg.Interleaved {
		return 0, addr
	}
	g := s.p.InterleaveBytes
	span := addr / g
	return int(span % n), (span/n)*g + addr%g
}

// noise applies deterministic +-NoisePct jitter.
func (s *System) noise(ns float64) float64 {
	if s.p.NoisePct <= 0 {
		return ns
	}
	f := 1 + (s.rng.Float64()*2-1)*s.p.NoisePct/100
	return ns * f
}

// occScale returns the bandwidth scaling for the interleave configuration.
func (s *System) occScale() float64 {
	if !s.cfg.Interleaved || s.cfg.DIMMs <= 1 {
		return 1
	}
	n := float64(s.cfg.DIMMs)
	if n > s.p.OccScaleMax {
		n = s.p.OccScaleMax
	}
	return n
}

// readLatency classifies a read against the behavioral structures.
func (s *System) readLatency(di int, local uint64) float64 {
	switch {
	case s.lsq[di].contains(local) || s.wpq[di].contains(local):
		// Data fast-forward from pending writes.
		lat := s.p.ReadRMWNs * 0.9
		return lat
	case s.rmw[di].contains(local):
		return s.p.ReadRMWNs
	case s.ait[di].contains(local):
		return s.p.ReadAITNs
	default:
		return s.p.ReadMediaNs
	}
}

// writeLatency classifies a store completion (ADR-posted semantics: the
// structure pressure shows up as acceptance latency).
func (s *System) writeLatency(di int, local uint64) float64 {
	switch {
	case s.wpq[di].contains(local):
		return s.p.WriteWPQNs
	case s.lsq[di].contains(local):
		return s.p.WriteLSQNs
	case s.rmw[di].contains(local):
		return s.p.WriteRMWNs
	case s.ait[di].contains(local):
		return s.p.WriteAITNs
	default:
		return s.p.WriteMediaNs
	}
}

// Submit implements mem.System.
func (s *System) Submit(r *mem.Request) bool {
	now := s.eng.Now()
	r.Issued = now
	di, local := s.dimm(r.Addr)
	var latNs, occNs float64
	isWrite := false

	switch r.Op {
	case mem.OpRead:
		s.reads++
		latNs = s.readLatency(di, local)
		occNs = s.p.OccLoad1 / s.occScale()
		s.rmw[di].touch(local)
		s.ait[di].touch(local)
	case mem.OpWriteNT, mem.OpWrite, mem.OpClwb:
		s.writes++
		isWrite = true
		latNs = s.writeLatency(di, local)
		if r.Op == mem.OpWriteNT {
			occNs = s.p.OccStNT1 / s.occScale()
		} else {
			occNs = s.p.OccSt1 / s.occScale()
		}
		s.wpq[di].touch(local)
		s.lsq[di].touch(local)
		s.rmw[di].touch(local)
		s.ait[di].touch(local)
		latNs += s.tailNs(r.Addr)
	case mem.OpFence:
		// mfence: fixed on-core cost plus draining pending structures.
		entries := s.wpq[di].lru.Len() + s.lsq[di].lru.Len()
		latNs = s.p.FenceBaseNs + float64(entries)*s.p.FenceEntryNs
		for i := range s.wpq {
			s.wpq[i].lru.Reset()
			s.lsq[i].lru.Reset()
		}
		occNs = 0
	default:
		return false
	}

	// Bus turnaround on direction switches (drives the RaW penalty).
	if r.Op != mem.OpFence && s.lastWrite != isWrite {
		latNs += s.p.TurnaroundNs
		s.lastWrite = isWrite
	}

	latNs = s.noise(latNs)
	lat := dram.NsToCycles(latNs)
	occ := dram.NsToCycles(occNs)

	// Throughput semantics: an aggregated serving pipe with per-op
	// occupancy scaled by the interleave configuration.
	start := now
	if s.pipeFree > start {
		start = s.pipeFree
	}
	s.pipeFree = start + occ
	done := start + lat
	if done <= now {
		done = now + 1
	}
	s.inflight++
	if s.o.Active() {
		s.o.Emit(obs.Event{Now: now, Stage: obs.StageRequest, Pos: obs.PosIssue,
			Write: isWrite, Comp: s.comp, Addr: r.Addr, Arg: uint64(done - now)})
	}
	s.eng.ScheduleFn(done, s.complete, r)
	return true
}

// finish completes one request at its scheduled cycle.
func (s *System) finish(a any) {
	r := a.(*mem.Request)
	s.inflight--
	if s.o.Active() {
		write := r.Op == mem.OpWriteNT || r.Op == mem.OpWrite || r.Op == mem.OpClwb
		s.o.Emit(obs.Event{Now: s.eng.Now(), Stage: obs.StageRequest, Pos: obs.PosComplete,
			Write: write, Comp: s.comp, Addr: r.Addr})
	}
	r.Complete(s.eng.Now())
}

// tailNs injects the wear-leveling tail on every TailEvery-th write to a
// 64KB wear block.
func (s *System) tailNs(addr uint64) float64 {
	blk := addr - addr%s.p.WearBlock
	s.wear[blk]++
	if s.wear[blk] >= s.p.TailEvery {
		s.wear[blk] = 0
		s.Tails++
		if s.o.Active() {
			s.o.Emit(obs.Event{Now: s.eng.Now(), Stage: obs.StageWear, Pos: obs.PosMigrate,
				Write: true, Comp: s.comp, Addr: blk,
				Arg: uint64(dram.NsToCycles(s.p.TailStallNs))})
		}
		return s.p.TailStallNs
	}
	return 0
}

// AmplificationScore returns the measured-style read amplification score for
// a PC-Block of blockSize against a structure of grain granularity: the
// latency ratio of overflow to fit cases (drops to 1 at blockSize >= grain),
// mirroring how LENS derives the score without hardware counters.
func AmplificationScore(blockSize, grain uint64, overflowNs, fitNs float64) float64 {
	if blockSize >= grain {
		return 1
	}
	frac := float64(grain-blockSize) / float64(grain)
	return 1 + (overflowNs/fitNs-1)*frac
}
