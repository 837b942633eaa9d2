// Package media models the 3D-XPoint storage media inside an Optane DIMM:
// 256-byte access granularity, asymmetric read/write latency, banked
// partitions with per-partition serialization, per-64KB-block wear counters
// (consumed by the wear-leveler), and an optional sparse functional data
// store for end-to-end correctness tests.
package media

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes the media model. Zero fields take defaults from
// DefaultConfig.
type Config struct {
	// BlockSize is the media access granularity in bytes (Optane: 256).
	BlockSize uint64
	// Partitions is the number of independently serialized media banks.
	Partitions int
	// ReadNs / WriteNs are the per-block service latencies.
	ReadNs  float64
	WriteNs float64
	// ReadPorts / WritePorts bound concurrent accesses of each kind across
	// the whole device (the controller-to-media channel width). Together
	// with the latencies these set the sustainable internal bandwidth:
	// 1 write port x 256B / 480ns ~ 0.53 GB/s, matching the sequential
	// write rate of Figure 7a's single-DIMM curve; 6 read ports x 256B /
	// 160ns ~ 9.6 GB/s of internal read bandwidth for 4KB AIT line fills.
	// Background (fill) reads are confined to the upper half of the read
	// ports so speculation never starves demand reads.
	ReadPorts  int
	WritePorts int
	// WearBlock is the wear-leveling tracking granularity (Optane: 64KB).
	WearBlock uint64
	// WearDecayCycles, when > 0, halves each wear counter every
	// WearDecayCycles of simulated time (lazily applied). This leaky-bucket
	// behavior is what makes wear-leveling rate-sensitive: writes spread
	// over two or more wear blocks accrue too slowly to trigger migration,
	// reproducing the tail-frequency drop at 64KB regions (Figure 7c).
	WearDecayCycles uint64
	// Capacity is the media size in bytes.
	Capacity uint64
	// Functional enables the sparse data store (timing unchanged).
	Functional bool

	// Obs, when non-nil, receives lifecycle hooks and registry-backed
	// counters/histograms under component ObsName. Runtime-only: never
	// serialized, never part of a config hash.
	Obs *obs.Obs `json:"-"`
	// ObsName is the component instance name ("dimm0/media").
	ObsName string `json:"-"`
}

// DefaultConfig returns Optane-like media parameters for a 4GB device (the
// capacity the paper validates VANS at; Figure 10a shows capacity does not
// affect the latency curves).
func DefaultConfig() Config {
	return Config{
		BlockSize:  256,
		Partitions: 16,
		ReadNs:     160,
		WriteNs:    480,
		ReadPorts:  6,
		WritePorts: 2,
		WearBlock:  64 << 10,
		Capacity:   4 << 30,
	}
}

// Stats counts media activity.
type Stats struct {
	Reads      uint64 // block reads
	Writes     uint64 // block writes
	BytesRead  uint64
	BytesWrite uint64
}

// XPoint is the media timing and wear model.
type XPoint struct {
	eng *sim.Engine
	cfg Config

	readCycles  sim.Cycle
	writeCycles sim.Cycle
	// readNs and writeNs are the service times the latency histograms
	// record: an access's service time depends only on its kind.
	readNs, writeNs uint64
	// blockShift and wearShift are log2 of BlockSize and WearBlock, which
	// New checks are powers of two, as it checks Partitions.
	blockShift, wearShift uint8

	// partFree[i] is the earliest cycle partition i can begin a new access.
	partFree []sim.Cycle
	// readFree / writeFree are the per-port next-free cycles of the
	// controller-to-media channels.
	readFree  []sim.Cycle
	writeFree []sim.Cycle

	// wear counts writes per wear block since the last ResetWear; wearAt
	// records the cycle of the last decay application per block. Both are
	// paged arrays indexed by wear-block number.
	wear   *pagedU64
	wearAt *pagedU64

	// data holds functional contents in paged slabs indexed by media block
	// number (nil unless Functional is enabled).
	data *pagedData

	stats Stats

	// o receives lifecycle hooks (nil-safe); histRead/histWrite record
	// per-access service latency in ns when an Obs is attached (nil
	// otherwise, so the unobserved hot path never touches them).
	o         *obs.Obs
	comp      string
	histRead  *obs.Histogram
	histWrite *obs.Histogram
}

// New returns a media model on eng. It panics unless BlockSize, Partitions
// and WearBlock are powers of two, since every access maps its address with
// shifts and masks; Capacity may be any size.
func New(eng *sim.Engine, cfg Config) *XPoint {
	def := DefaultConfig()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = def.BlockSize
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = def.Partitions
	}
	if cfg.ReadNs == 0 {
		cfg.ReadNs = def.ReadNs
	}
	if cfg.WriteNs == 0 {
		cfg.WriteNs = def.WriteNs
	}
	if cfg.ReadPorts == 0 {
		cfg.ReadPorts = def.ReadPorts
	}
	if cfg.WritePorts == 0 {
		cfg.WritePorts = def.WritePorts
	}
	if cfg.WearBlock == 0 {
		cfg.WearBlock = def.WearBlock
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = def.Capacity
	}
	log2("partition count", uint64(cfg.Partitions))
	wearBlocks := (cfg.Capacity + cfg.WearBlock - 1) / cfg.WearBlock
	x := &XPoint{
		eng:         eng,
		cfg:         cfg,
		readCycles:  dram.NsToCycles(cfg.ReadNs),
		writeCycles: dram.NsToCycles(cfg.WriteNs),
		blockShift:  log2("block size", cfg.BlockSize),
		wearShift:   log2("wear block", cfg.WearBlock),
		partFree:    make([]sim.Cycle, cfg.Partitions),
		readFree:    make([]sim.Cycle, cfg.ReadPorts),
		writeFree:   make([]sim.Cycle, cfg.WritePorts),
		wear:        newPagedU64(wearBlocks),
		wearAt:      newPagedU64(wearBlocks),
	}
	x.readNs = uint64(float64(x.readCycles) / dram.CyclesPerNano)
	x.writeNs = uint64(float64(x.writeCycles) / dram.CyclesPerNano)
	if cfg.Functional {
		x.data = newPagedData(cfg.BlockSize, cfg.Capacity)
	}
	if cfg.Obs != nil {
		x.o = cfg.Obs
		x.comp = cfg.ObsName
		if x.comp == "" {
			x.comp = "media"
		}
		cfg.Obs.RegisterPtr(x.comp, "reads", &x.stats.Reads)
		cfg.Obs.RegisterPtr(x.comp, "writes", &x.stats.Writes)
		cfg.Obs.RegisterPtr(x.comp, "bytes_read", &x.stats.BytesRead)
		cfg.Obs.RegisterPtr(x.comp, "bytes_written", &x.stats.BytesWrite)
		x.histRead = cfg.Obs.Histogram(x.comp, "read_ns", nil)
		x.histWrite = cfg.Obs.Histogram(x.comp, "write_ns", nil)
	}
	return x
}

// Config returns the effective configuration.
func (x *XPoint) Config() Config { return x.cfg }

// Stats returns a copy of the counters.
func (x *XPoint) Stats() Stats { return x.stats }

// log2 returns the base-2 logarithm of n, panicking, with what n is, unless
// n is a power of two.
func log2(what string, n uint64) uint8 {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("media: %s %d is not a power of two", what, n))
	}
	return uint8(bits.TrailingZeros64(n))
}

// partition maps a media address to its bank.
func (x *XPoint) partition(addr uint64) int {
	return int(addr >> x.blockShift & uint64(x.cfg.Partitions-1))
}

// wrap folds addr onto the media. Only an address off the media pays for
// the division; one on it, the common case, costs a compare.
func (x *XPoint) wrap(addr uint64) uint64 {
	if addr >= x.cfg.Capacity {
		addr %= x.cfg.Capacity
	}
	return addr
}

// Access times one demand block access at addr (media address). done, if
// non-nil, is called with arg when the access completes (the engine's
// allocation-free (func(any), any) form); the return value is the
// completion cycle. Writes bump the wear counter of the containing block.
func (x *XPoint) Access(addr uint64, write bool, done func(any), arg any) sim.Cycle {
	return x.access(addr, write, false, done, arg)
}

// AccessBG times one background (speculative fill) access. Background reads
// are restricted to the last read port so they can never starve demand
// reads.
func (x *XPoint) AccessBG(addr uint64, write bool, done func(any), arg any) sim.Cycle {
	return x.access(addr, write, true, done, arg)
}

func (x *XPoint) access(addr uint64, write, background bool, done func(any), arg any) sim.Cycle {
	addr = x.wrap(addr)
	p := x.partition(addr)
	start := x.eng.Now()
	if x.partFree[p] > start {
		start = x.partFree[p]
	}
	// Claim the earliest-free port of the access class; background reads
	// may only use the last port.
	ports := x.readFree
	if write {
		ports = x.writeFree
	}
	lo := 0
	if background && !write && len(ports) > 1 {
		lo = len(ports) / 2
	}
	pi := lo
	for i := lo; i < len(ports); i++ {
		if ports[i] < ports[pi] {
			pi = i
		}
	}
	if ports[pi] > start {
		start = ports[pi]
	}
	svc := x.readCycles
	if write {
		svc = x.writeCycles
		blk := x.wearIdx(addr)
		x.wear.set(blk, x.decayedWear(blk)+1)
		x.wearAt.set(blk, uint64(x.eng.Now()))
		x.stats.Writes++
		x.stats.BytesWrite += x.cfg.BlockSize
	} else {
		x.stats.Reads++
		x.stats.BytesRead += x.cfg.BlockSize
	}
	end := start + svc
	// Background fills consume port bandwidth but do not reserve the
	// partition: a later demand access to the same partition is served by
	// another plane rather than queuing behind speculation.
	if !background {
		x.partFree[p] = end
	}
	ports[pi] = end
	// Observability: latency histograms whenever an Obs is attached;
	// issue/complete lifecycle events (and their closure) only while a
	// tracer is active, so the unobserved path stays allocation-free.
	if write {
		x.histWrite.Observe(x.writeNs)
	} else {
		x.histRead.Observe(x.readNs)
	}
	if x.o.Active() {
		x.o.Emit(obs.Event{Now: start, Stage: obs.StageMedia, Pos: obs.PosIssue,
			Write: write, Comp: x.comp, Addr: addr, Arg: uint64(end - start)})
		x.eng.Schedule(end, func() {
			x.o.Emit(obs.Event{Now: end, Stage: obs.StageMedia, Pos: obs.PosComplete,
				Write: write, Comp: x.comp, Addr: addr})
		})
	}
	if done != nil {
		x.eng.ScheduleFn(end, done, arg)
	}
	return end
}

// wearIdx returns the wear-block number containing addr.
func (x *XPoint) wearIdx(addr uint64) uint64 { return addr >> x.wearShift }

// decayedWear returns wear block blk's counter after applying any pending
// exponential decay (one halving per elapsed WearDecayCycles window).
func (x *XPoint) decayedWear(blk uint64) uint64 {
	c := x.wear.get(blk)
	if c == 0 || x.cfg.WearDecayCycles == 0 {
		return c
	}
	elapsed := uint64(x.eng.Now()) - x.wearAt.get(blk)
	halvings := elapsed / x.cfg.WearDecayCycles
	if halvings >= 64 {
		return 0
	}
	return c >> halvings
}

// WearCount returns the write count of the wear block containing addr since
// its last reset, after decay.
func (x *XPoint) WearCount(addr uint64) uint64 {
	return x.decayedWear(x.wearIdx(x.wrap(addr)))
}

// ResetWear clears the wear counter of the block containing addr (called by
// the wear-leveler after migrating the block).
func (x *XPoint) ResetWear(addr uint64) {
	blk := x.wearIdx(x.wrap(addr))
	x.wear.set(blk, 0)
	x.wearAt.set(blk, 0)
}

// TotalWear sums all wear counters (test/diagnostic aid).
func (x *XPoint) TotalWear() uint64 {
	var sum uint64
	x.wear.forEach(func(_, w uint64) { sum += w })
	return sum
}

// WriteData stores bytes at addr in the functional store. It is a no-op
// unless Functional is enabled.
func (x *XPoint) WriteData(addr uint64, data []byte) {
	if !x.cfg.Functional {
		return
	}
	for len(data) > 0 {
		a := addr % x.cfg.Capacity
		off := a % x.cfg.BlockSize
		n := x.cfg.BlockSize - off
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		buf := x.data.block(a/x.cfg.BlockSize, true)
		copy(buf[off:off+n], data[:n])
		addr += n
		data = data[n:]
	}
}

// ReadData returns n bytes at addr from the functional store (zeroes for
// never-written locations). It returns nil unless Functional is enabled.
func (x *XPoint) ReadData(addr uint64, n int) []byte {
	if !x.cfg.Functional {
		return nil
	}
	out := make([]byte, n)
	rest := out
	for len(rest) > 0 {
		a := addr % x.cfg.Capacity
		off := a % x.cfg.BlockSize
		c := x.cfg.BlockSize - off
		if c > uint64(len(rest)) {
			c = uint64(len(rest))
		}
		if buf := x.data.block(a/x.cfg.BlockSize, false); buf != nil {
			copy(rest[:c], buf[off:off+c])
		}
		addr += c
		rest = rest[c:]
	}
	return out
}

// AdoptPersistent transplants the persistent remnants of a powered-off
// device into this one: the functional data image and the wear counters
// (which real devices keep in persistent metadata). Decay timestamps are
// reset to cycle 0 — the adopting device runs on a fresh engine. Volatile
// timing state (port and partition reservations) is deliberately not
// carried over; it did not survive the power loss.
func (x *XPoint) AdoptPersistent(old *XPoint) {
	if x.data != nil && old.data != nil {
		x.data.adoptFrom(old.data)
	}
	// Wear counters carry over; decay timestamps restart at cycle 0.
	old.wear.forEach(func(blk, w uint64) { x.wear.set(blk, w) })
}

// CopyBlock moves one media block's functional contents from src to dst
// (block-aligned); used by wear-leveling migration.
func (x *XPoint) CopyBlock(src, dst uint64) {
	if !x.cfg.Functional {
		return
	}
	srcIdx := (src % x.cfg.Capacity) / x.cfg.BlockSize
	dstIdx := (dst % x.cfg.Capacity) / x.cfg.BlockSize
	srcBuf := x.data.block(srcIdx, false)
	if srcBuf == nil {
		// Source never written: the destination must read as zeroes.
		if dstBuf := x.data.block(dstIdx, false); dstBuf != nil {
			clear(dstBuf)
		}
		return
	}
	copy(x.data.block(dstIdx, true), srcBuf)
}
