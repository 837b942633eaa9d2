package vans

import (
	"repro/internal/dram"
	"repro/internal/imc"
	"repro/internal/sim"
)

// nearCache is the Memory-mode DRAM cache: direct-mapped, 64B lines,
// write-back write-allocate, with DDR4 timing for hits (a dedicated DRAM
// DIMM per the platform's Memory-mode channel pairing) and NVDIMM round
// trips for misses.
type nearCache struct {
	eng   *sim.Engine
	imc   *imc.IMC
	dramC *dram.Controller

	lines uint64
	// tags maps set index -> line address currently cached (direct-mapped).
	tags  map[uint64]uint64
	dirty map[uint64]bool

	inflight int

	// CacheStats
	hits      uint64
	misses    uint64
	wbacks    uint64
	fillDrops uint64
}

// NearCacheStats reports Memory-mode cache behavior.
type NearCacheStats struct {
	Hits       uint64
	Misses     uint64
	WriteBacks uint64
}

func newNearCache(eng *sim.Engine, m *imc.IMC, sizeBytes uint64) *nearCache {
	cfg := dram.DefaultConfig()
	cfg.QueueDepth = 32
	return &nearCache{
		eng:   eng,
		imc:   m,
		dramC: dram.NewController(eng, cfg),
		lines: sizeBytes / 64,
		tags:  make(map[uint64]uint64),
		dirty: make(map[uint64]bool),
	}
}

// Stats returns a snapshot of cache counters.
func (c *nearCache) Stats() NearCacheStats {
	return NearCacheStats{Hits: c.hits, Misses: c.misses, WriteBacks: c.wbacks}
}

func (c *nearCache) busy() bool { return c.inflight > 0 }

func (c *nearCache) index(line uint64) uint64 { return (line / 64) % c.lines }

// lookup probes the cache; returns hit.
func (c *nearCache) lookup(line uint64) bool {
	got, ok := c.tags[c.index(line)]
	return ok && got == line
}

// The near cache sits off the App Direct request path, so it keeps its
// per-access closures and hands them to the (func(any), any) completion
// forms of the DRAM controller and the iMC through these trampolines.
func runThunk(a any) {
	if f := a.(func()); f != nil {
		f()
	}
}

func runErrThunk(a any, err error) { a.(func(error))(err) }

// dramAccess schedules a near-DRAM access with retry-on-backpressure.
func (c *nearCache) dramAccess(addr uint64, write bool, done func()) {
	if !c.dramC.Schedule(addr, write, runThunk, done) {
		c.eng.After(8, func() { c.dramAccess(addr, write, done) })
	}
}

// read serves a 64B load. Hit: DRAM timing. Miss: NVDIMM read, install,
// write back the displaced dirty line. A poisoned far read surfaces through
// done and is never installed in the cache.
func (c *nearCache) read(addr uint64, done func(error)) bool {
	line := addr - addr%64
	c.inflight++
	finish := func(err error) {
		c.inflight--
		done(err)
	}
	if c.lookup(line) {
		c.hits++
		c.dramAccess(line, false, func() { finish(nil) })
		return true
	}
	c.misses++
	if !c.imc.Read(line, runErrThunk, func(err error) {
		if err != nil {
			finish(err)
			return
		}
		c.install(line, false)
		// The fill write to near DRAM is off the critical path.
		c.dramAccess(line, true, nil)
		finish(nil)
	}) {
		c.inflight--
		return false
	}
	return true
}

// write serves a 64B store with write-allocate semantics. A poisoned
// allocate-fill does not fail the store: the new data overwrites the
// unreadable line.
func (c *nearCache) write(addr uint64, done func()) bool {
	line := addr - addr%64
	c.inflight++
	finish := func() {
		c.inflight--
		done()
	}
	if c.lookup(line) {
		c.hits++
		c.dirty[c.index(line)] = true
		c.dramAccess(line, true, finish)
		return true
	}
	c.misses++
	if !c.imc.Read(line, runErrThunk, func(error) {
		c.install(line, true)
		c.dramAccess(line, true, finish)
	}) {
		c.inflight--
		return false
	}
	return true
}

// install places line in its set, writing back a displaced dirty victim to
// the NVDIMM in the background.
func (c *nearCache) install(line uint64, dirty bool) {
	idx := c.index(line)
	if victim, ok := c.tags[idx]; ok && victim != line && c.dirty[idx] {
		c.wbacks++
		c.inflight++
		var push func()
		push = func() {
			if !c.imc.Write(victim, nil, runThunk, func() { c.inflight-- }) {
				c.eng.After(32, push)
			}
		}
		push()
	}
	c.tags[idx] = line
	c.dirty[idx] = dirty
}
