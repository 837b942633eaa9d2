// Package cpu is the full-system substrate standing in for gem5: a
// window-based out-of-order timing core with an L1/L2/L3 cache hierarchy,
// two-level TLB with page-walk modeling, MSHR-limited memory-level
// parallelism, and the CPU-side half of the Pre-translation optimization
// (the mkpt instruction and Read Lookaside Buffer). It drives any
// mem.System — VANS, the baselines, or a plain DRAM controller.
package cpu

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/sim"
)

// Config mirrors Table V's simulated system configuration.
type Config struct {
	// WidthIssue is instructions dispatched per core cycle.
	WidthIssue int
	// CoreGHz is the core clock (2.2 GHz in the paper).
	CoreGHz float64
	// ROB is the out-of-order window size (224). Table V's load and store
	// queues (72 and 56) are not modeled.
	ROB int
	// MSHRs bounds outstanding cache-line misses to memory.
	MSHRs int

	// Cache hierarchy.
	L1 cache.Config
	L2 cache.Config
	L3 cache.Config
	// Hit latencies in ns.
	L1Ns float64
	L2Ns float64
	L3Ns float64

	// TLBs: first-level data TLB and second-level shared TLB.
	DTLBEntries int
	DTLBWays    int
	STLBEntries int
	STLBWays    int
	PageSize    uint64
	// STLBNs is the added cost of an STLB lookup after a DTLB miss;
	// WalkNs is the page-table walk cost after an STLB miss.
	STLBNs float64
	WalkNs float64

	// RLBEntries sizes the Read Lookaside Buffer of Pre-translation
	// (1KB / 8B = 128 entries in the paper). Zero disables the RLB.
	RLBEntries int
}

// DefaultConfig returns the Table V configuration.
func DefaultConfig() Config {
	return Config{
		WidthIssue: 4,
		CoreGHz:    2.2,
		ROB:        224,
		MSHRs:      10,
		L1:         cache.Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:         cache.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64},
		L3:         cache.Config{SizeBytes: 32 << 20, Ways: 16, LineBytes: 64},
		L1Ns:       1.8, L2Ns: 6.4, L3Ns: 20,
		DTLBEntries: 64, DTLBWays: 4,
		STLBEntries: 1536, STLBWays: 12,
		PageSize: 4096,
		STLBNs:   2.5, WalkNs: 75,
	}
}

// cyc converts the ns latencies once.
type cpucycles struct {
	l1, l2, l3   sim.Cycle
	stlb, walk   sim.Cycle
	perInstr     float64 // engine cycles per instruction at full width
	coreCycle    float64 // engine cycles per core cycle
	rlbExtraBase sim.Cycle
}

func (c Config) cycles() cpucycles {
	coreCycle := dram.ClockMHz / (c.CoreGHz * 1000) // engine cycles per core cycle
	return cpucycles{
		l1:        dram.NsToCycles(c.L1Ns),
		l2:        dram.NsToCycles(c.L2Ns),
		l3:        dram.NsToCycles(c.L3Ns),
		stlb:      dram.NsToCycles(c.STLBNs),
		walk:      dram.NsToCycles(c.WalkNs),
		perInstr:  coreCycle / float64(c.WidthIssue),
		coreCycle: coreCycle,
	}
}

// InstrClass labels instructions for cycle attribution (Figure 12a).
type InstrClass uint8

const (
	// ClassOther is ordinary compute work.
	ClassOther InstrClass = iota
	// ClassRead marks the workload's tracked read operations.
	ClassRead
	// ClassWrite marks the tracked write operations.
	ClassWrite
	// numClasses bounds the attribution arrays.
	numClasses
)

// Instr is one instruction of a synthetic workload stream.
type Instr struct {
	// IsMem marks a memory operation; IsLoad selects load vs store.
	IsMem  bool
	IsLoad bool
	// Addr is the physical address of a memory operation.
	Addr uint64
	// DependsOnLoad serializes this operation behind the previous load's
	// completion (pointer chasing).
	DependsOnLoad bool
	// NT marks a non-temporal (cache-bypassing) store.
	NT bool
	// Clwb marks a cache-line write-back of Addr.
	Clwb bool
	// Fence is a store fence (mfence/sfence): dispatch serializes and all
	// prior stores become durable.
	Fence bool
	// Mkpt marks a pointer-chasing load for Pre-translation; NextAddr is
	// the address the loaded pointer references.
	Mkpt     bool
	NextAddr uint64
	// Class attributes the instruction's retire cycles.
	Class InstrClass
}

// Workload produces an instruction stream.
type Workload interface {
	// Next returns the next instruction; ok=false ends the run.
	Next() (Instr, bool)
}

// SliceWorkload replays a fixed instruction slice.
type SliceWorkload struct {
	Instrs []Instr
	pos    int
}

// Next implements Workload.
func (s *SliceWorkload) Next() (Instr, bool) {
	if s.pos >= len(s.Instrs) {
		return Instr{}, false
	}
	i := s.Instrs[s.pos]
	s.pos++
	return i, true
}

// Reset rewinds the stream.
func (s *SliceWorkload) Reset() { s.pos = 0 }
