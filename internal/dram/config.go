// Package dram implements a DDR4 DRAM timing model: per-bank state machines,
// a command scheduler with FCFS and FR-FCFS policies, an address mapper, and
// a DDR4 command-legality checker that plays the role of Micron's Verilog
// verification model in the paper's DRAM-model verification flow.
//
// The model serves two roles in this repository: the on-DIMM DRAM that hosts
// the Optane AIT (the paper models its timing with the DDR4 protocol because
// DDR-T extends DDR4), and the DRAM main memory of the baseline systems.
package dram

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Timing holds DDR4 timing constraints in command-clock cycles. The defaults
// mirror Table V of the paper: DDR4-2666 with tCAS(19) tRCD(19) tRP(19)
// tRAS(43). One command clock at 2666 MT/s is 0.75 ns.
type Timing struct {
	TCL    sim.Cycle // CAS latency: RD -> first data beat
	TRCD   sim.Cycle // ACT -> RD/WR to the same bank
	TRP    sim.Cycle // PRE -> ACT to the same bank
	TRAS   sim.Cycle // ACT -> PRE to the same bank
	TCCD   sim.Cycle // RD->RD / WR->WR minimum spacing (same bank group)
	TCCDS  sim.Cycle // RD->RD / WR->WR spacing across bank groups (short)
	TRRD   sim.Cycle // ACT -> ACT, different banks same rank
	TFAW   sim.Cycle // window for at most four ACTs per rank
	TWL    sim.Cycle // write latency: WR -> first data beat
	TWR    sim.Cycle // write recovery: end of write data -> PRE
	TRTP   sim.Cycle // RD -> PRE
	TWTR   sim.Cycle // end of write data -> RD
	TBurst sim.Cycle // data burst length on the bus (BL8 = 4 command clocks)
	TREFI  sim.Cycle // average refresh interval
	TRFC   sim.Cycle // refresh cycle time (rank busy after REF)
}

// DDR42666 returns the DDR4-2666 timing set used throughout the paper.
func DDR42666() Timing {
	return Timing{
		TCL: 19, TRCD: 19, TRP: 19, TRAS: 43,
		TCCD: 7, TCCDS: 4, TRRD: 6, TFAW: 26,
		TWL: 14, TWR: 20, TRTP: 10, TWTR: 10,
		TBurst: 4,
		TREFI:  10398, // 7.8 us at 0.75 ns/cycle
		TRFC:   467,   // 350 ns for 8Gb devices
	}
}

// DDR31600 returns a DDR3-1600-like timing set (used by the DRAMSim2-DDR3
// baseline comparison in Figure 3a). Cycles are still interpreted on the
// shared 0.75 ns clock for comparability.
func DDR31600() Timing {
	t := DDR42666()
	t.TCL, t.TRCD, t.TRP, t.TRAS = 15, 15, 15, 38
	t.TCCD, t.TCCDS = 5, 5
	return t
}

// ClockMHz is the command-clock frequency all simulations run at. One engine
// cycle is one command clock: 1333 MHz, 0.75 ns.
const ClockMHz = 1333.0

// CyclesPerNano converts between engine cycles and wall-clock nanoseconds.
const CyclesPerNano = ClockMHz / 1000.0

// NsToCycles converts a nanosecond latency into engine cycles (rounded).
func NsToCycles(ns float64) sim.Cycle {
	if ns <= 0 {
		return 0
	}
	return sim.Cycle(ns*CyclesPerNano + 0.5)
}

// CyclesToNs converts engine cycles to nanoseconds.
func CyclesToNs(c sim.Cycle) float64 { return float64(c) / CyclesPerNano }

// Geometry describes the DRAM organization behind one controller.
type Geometry struct {
	Ranks      int
	BankGroups int
	// Banks is banks per bank group.
	Banks int
	// RowSize is the row (page) size in bytes.
	RowSize uint64
	// Rows per bank; with RowSize this fixes the capacity.
	Rows uint64
}

// DefaultGeometry is a single-rank x8 DDR4 device set: 4 bank groups x 4
// banks, 8KB rows.
func DefaultGeometry() Geometry {
	return Geometry{Ranks: 1, BankGroups: 4, Banks: 4, RowSize: 8 << 10, Rows: 1 << 16}
}

// Capacity returns the total bytes addressable by the geometry.
func (g Geometry) Capacity() uint64 {
	return uint64(g.Ranks*g.BankGroups*g.Banks) * g.Rows * g.RowSize
}

// Coord locates one column burst inside the DRAM organization.
type Coord struct {
	Rank, BankGroup, Bank int
	Row                   uint64
	Col                   uint64
}

// bankIndex flattens the coordinate into a dense bank id.
func (g Geometry) bankIndex(c Coord) int {
	return (c.Rank*g.BankGroups+c.BankGroup)*g.Banks + c.Bank
}

// totalBanks returns the number of independent banks.
func (g Geometry) totalBanks() int { return g.Ranks * g.BankGroups * g.Banks }

// powerOfTwo reports whether every dimension of g is a power of two, as
// MapAddr requires.
func (g Geometry) powerOfTwo() bool {
	pow2 := func(n uint64) bool { return n != 0 && n&(n-1) == 0 }
	return pow2(uint64(g.Ranks)) && pow2(uint64(g.BankGroups)) && pow2(uint64(g.Banks)) &&
		pow2(g.RowSize) && pow2(g.Rows)
}

// MapAddr maps a physical byte address onto the organization using a
// row-interleaved scheme: consecutive rows rotate across banks so streaming
// accesses exploit bank-level parallelism, while accesses within a row stay
// open-page friendly. Layout (low to high): column within row, bank, bank
// group, rank, row; address bits above the capacity are ignored. Every
// dimension of g must be a power of two (NewController checks it), so each
// field is a bit range of the address.
func (g Geometry) MapAddr(addr uint64) Coord {
	col := addr & (g.RowSize - 1)
	a := addr >> bits.TrailingZeros64(g.RowSize)
	bank := int(a) & (g.Banks - 1)
	a >>= bits.TrailingZeros(uint(g.Banks))
	bg := int(a) & (g.BankGroups - 1)
	a >>= bits.TrailingZeros(uint(g.BankGroups))
	rank := int(a) & (g.Ranks - 1)
	a >>= bits.TrailingZeros(uint(g.Ranks))
	return Coord{Rank: rank, BankGroup: bg, Bank: bank, Row: a & (g.Rows - 1), Col: col}
}

// UnmapAddr is the inverse of MapAddr (used by property tests).
func (g Geometry) UnmapAddr(c Coord) uint64 {
	a := c.Row
	a = a*uint64(g.Ranks) + uint64(c.Rank)
	a = a*uint64(g.BankGroups) + uint64(c.BankGroup)
	a = a*uint64(g.Banks) + uint64(c.Bank)
	return a*g.RowSize + c.Col
}

// Policy selects the command scheduling policy.
type Policy uint8

const (
	// FCFS serves requests strictly in arrival order (VANS default).
	FCFS Policy = iota
	// FRFCFS serves row hits before row misses, then arrival order.
	FRFCFS
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case FRFCFS:
		return "fr-fcfs"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Config configures one Controller.
type Config struct {
	Timing   Timing
	Geometry Geometry
	Policy   Policy
	// QueueDepth bounds the request queue (0 = 32).
	QueueDepth int
	// AccessBytes is the data moved per RD/WR burst (64 for a x64 channel
	// with BL8). Requests larger than this are split by the caller.
	AccessBytes uint64
	// TapCommands, when true, records the command trace for verification.
	TapCommands bool
	// ClosedPage precharges the row after every column access (auto-
	// precharge), as device models without row-buffer locality exploitation
	// do — e.g. Ramulator's PCM model.
	ClosedPage bool
	// RefreshEnabled enables periodic REF commands.
	RefreshEnabled bool

	// Obs, when set, registers this controller's counters with the
	// observability registry and enables hook emission. Runtime-only.
	Obs *obs.Obs `json:"-"`
	// ObsName is the component name used in the registry ("dram" when
	// empty); composed models pass e.g. "dimm0/dram".
	ObsName string `json:"-"`
}

// DefaultConfig returns a DDR4-2666 single-channel configuration.
func DefaultConfig() Config {
	return Config{
		Timing:         DDR42666(),
		Geometry:       DefaultGeometry(),
		Policy:         FCFS,
		QueueDepth:     32,
		AccessBytes:    64,
		RefreshEnabled: true,
	}
}
