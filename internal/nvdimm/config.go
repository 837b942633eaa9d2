// Package nvdimm models the Optane DIMM controller microarchitecture that
// LENS reverse-engineered in the paper: an on-DIMM load-store queue (LSQ)
// that write-combines 64B stores into 256B blocks, a 16KB SRAM read-modify-
// write (RMW) buffer with 256B lines, an address indirection table (AIT)
// whose translation table and 16MB data buffer live in on-DIMM DRAM with 4KB
// lines, a wear-leveler that migrates 64KB blocks and produces the paper's
// ~100x tail latencies, and 3D-XPoint media with 256B access granularity.
package nvdimm

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config holds every parameter LENS characterizes (sizes, granularities,
// latencies, policies). Defaults reproduce Table V / Figure 4 of the paper.
type Config struct {
	// LSQSlots is the number of 64B entries in the on-DIMM LSQ. 64 slots x
	// 64B = the 4KB structure whose overflow LENS sees at 4KB regions.
	LSQSlots int
	// LSQCombineBlock is the block size write combining targets (256B, to
	// reduce RMW operations).
	LSQCombineBlock uint64
	// LSQLookupNs is the LSQ forwarding/tag-check latency for reads.
	LSQLookupNs float64
	// LSQEpochNs is the scheduling epoch: how often the drain engine wakes.
	LSQEpochNs float64
	// LSQDrainAgeNs drains entries older than this even below high water.
	LSQDrainAgeNs float64
	// LSQHighWater (0..LSQSlots) starts eager draining above this occupancy.
	LSQHighWater int

	// RMWEntries is the number of 256B lines in the SRAM RMW buffer.
	// 64 x 256B = the 16KB structure LENS sees overflow at 16KB regions.
	RMWEntries int
	// RMWBlock is the RMW buffer line size and DIMM-internal access
	// granularity (256B).
	RMWBlock uint64
	// RMWHitNs is the SRAM access latency for an RMW buffer hit.
	RMWHitNs float64
	// RMWPortNs is the buffer port occupancy per operation (serialization).
	RMWPortNs float64

	// AITLookupNs is the AIT lookup processing latency (translation-table
	// indexing and DDR-T turnaround) paid before the on-DIMM DRAM access.
	AITLookupNs float64
	// AITEntries is the number of 4KB lines in the AIT data buffer.
	// 4096 x 4KB = the 16MB structure LENS sees overflow at 16MB regions.
	AITEntries int
	// AITWays is the buffer associativity.
	AITWays int
	// AITLine is the AIT line size, translation granularity, and
	// multi-DIMM interleave granularity (4KB).
	AITLine uint64

	// WearThreshold is the number of media block writes to one 64KB wear
	// block that triggers a migration (~14,000 per the paper's Fig. 7b).
	WearThreshold uint64
	// MigrationNs is the stall imposed on accesses to a wear block while it
	// migrates (the >100x tail latency; ~55us).
	MigrationNs float64

	// WriteThrough selects write-through (paper-consistent: media wear
	// advances with every combined write) vs write-back dirty eviction in
	// the RMW buffer and AIT buffer. Ablation benches flip this.
	WriteThrough bool
	// ReadFillLine, when true, fetches the rest of a 4KB AIT line from
	// media in the background after a sector miss (critical-sector-first).
	ReadFillLine bool

	// Media configures the 3D-XPoint model.
	Media media.Config
	// DRAM configures the on-DIMM DRAM hosting the AIT (DDR4-timed, per the
	// paper's DDR-T observation).
	DRAM dram.Config

	// Functional enables data contents tracking end to end.
	Functional bool

	// Injector, when non-nil, injects deterministic faults (uncorrectable
	// media read errors, AIT stall spikes) into this DIMM. Runtime-only:
	// never serialized, never part of a config hash.
	Injector *fault.Injector `json:"-"`

	// Obs, when set, registers this DIMM's counters with the observability
	// registry and enables hook emission through LSQ/RMW/AIT/media/wear.
	// Runtime-only: never serialized, never part of a config hash.
	Obs *obs.Obs `json:"-"`
	// ObsName is the component name used in the registry ("dimm" when
	// empty); multi-DIMM systems pass e.g. "dimm0".
	ObsName string `json:"-"`
}

// DefaultConfig returns the Optane DIMM parameter set from the paper's
// characterization (Figure 4, Table V).
func DefaultConfig() Config {
	d := dram.DefaultConfig()
	d.RefreshEnabled = false // on-DIMM controller hides refresh from DDR-T
	return Config{
		LSQSlots:        64,
		LSQCombineBlock: 256,
		LSQLookupNs:     4,
		LSQEpochNs:      12,
		LSQDrainAgeNs:   220,
		LSQHighWater:    48,

		RMWEntries: 64,
		RMWBlock:   256,
		RMWHitNs:   28,
		RMWPortNs:  6,

		AITLookupNs: 100,
		AITEntries:  4096,
		AITWays:     16,
		AITLine:     4096,

		WearThreshold: 14000,
		MigrationNs:   55000,

		WriteThrough: true,
		ReadFillLine: true,

		Media: media.DefaultConfig(),
		DRAM:  d,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LSQSlots == 0 {
		c.LSQSlots = d.LSQSlots
	}
	if c.LSQCombineBlock == 0 {
		c.LSQCombineBlock = d.LSQCombineBlock
	}
	if c.LSQLookupNs == 0 {
		c.LSQLookupNs = d.LSQLookupNs
	}
	if c.LSQEpochNs == 0 {
		c.LSQEpochNs = d.LSQEpochNs
	}
	if c.LSQDrainAgeNs == 0 {
		c.LSQDrainAgeNs = d.LSQDrainAgeNs
	}
	if c.LSQHighWater == 0 {
		c.LSQHighWater = c.LSQSlots * 3 / 4
	}
	if c.RMWEntries == 0 {
		c.RMWEntries = d.RMWEntries
	}
	if c.RMWBlock == 0 {
		c.RMWBlock = d.RMWBlock
	}
	if c.RMWHitNs == 0 {
		c.RMWHitNs = d.RMWHitNs
	}
	if c.RMWPortNs == 0 {
		c.RMWPortNs = d.RMWPortNs
	}
	if c.AITLookupNs == 0 {
		c.AITLookupNs = d.AITLookupNs
	}
	if c.AITEntries == 0 {
		c.AITEntries = d.AITEntries
	}
	if c.AITWays == 0 {
		c.AITWays = d.AITWays
	}
	if c.AITLine == 0 {
		c.AITLine = d.AITLine
	}
	if c.WearThreshold == 0 {
		c.WearThreshold = d.WearThreshold
	}
	if c.MigrationNs == 0 {
		c.MigrationNs = d.MigrationNs
	}
	if c.DRAM.AccessBytes == 0 {
		c.DRAM = d.DRAM
	}
	return c
}

// Sizes derived from the configuration, as LENS would report them.

// LSQBytes returns the LSQ capacity in bytes (64 x 64B = 4KB by default).
func (c Config) LSQBytes() uint64 { return uint64(c.LSQSlots) * 64 }

// RMWBytes returns the RMW buffer capacity (64 x 256B = 16KB by default).
func (c Config) RMWBytes() uint64 { return uint64(c.RMWEntries) * c.RMWBlock }

// AITBytes returns the AIT buffer capacity (4096 x 4KB = 16MB by default).
func (c Config) AITBytes() uint64 { return uint64(c.AITEntries) * c.AITLine }

// cycles is a small helper bundling converted latencies.
type cycles struct {
	lsqLookup sim.Cycle
	lsqEpoch  sim.Cycle
	lsqAge    sim.Cycle
	rmwHit    sim.Cycle
	rmwPort   sim.Cycle
	aitLookup sim.Cycle
	migration sim.Cycle
}

func (c Config) cycles() cycles {
	return cycles{
		lsqLookup: dram.NsToCycles(c.LSQLookupNs),
		lsqEpoch:  maxC(1, dram.NsToCycles(c.LSQEpochNs)),
		lsqAge:    dram.NsToCycles(c.LSQDrainAgeNs),
		rmwHit:    dram.NsToCycles(c.RMWHitNs),
		rmwPort:   maxC(1, dram.NsToCycles(c.RMWPortNs)),
		aitLookup: dram.NsToCycles(c.AITLookupNs),
		migration: dram.NsToCycles(c.MigrationNs),
	}
}

func maxC(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}

// log2 returns the base-2 logarithm of n. It panics, naming what n is,
// unless n is a power of two: the per-access address helpers use shifts
// and masks.
func log2(what string, n uint64) uint8 {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("nvdimm: %s %d is not a power of two", what, n))
	}
	return uint8(bits.TrailingZeros64(n))
}
