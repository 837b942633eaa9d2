package vans

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
)

// saveState serializes the Memory-mode near cache: tag/dirty arrays sorted
// by set index, activity counters, and the near-DRAM controller.
func (c *nearCache) saveState(enc *ckpt.Enc) error {
	if c.inflight != 0 {
		return fmt.Errorf("ckpt: near cache has %d in-flight accesses; checkpoint only at an idle cut", c.inflight)
	}
	idxs := make([]uint64, 0, len(c.tags))
	for i := range c.tags {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	enc.U32(uint32(len(idxs)))
	for _, i := range idxs {
		enc.U64(i)
		enc.U64(c.tags[i])
		enc.Bool(c.dirty[i])
	}
	enc.U64(c.hits)
	enc.U64(c.misses)
	enc.U64(c.wbacks)
	enc.U64(c.fillDrops)
	return c.dramC.SaveState(enc)
}

func (c *nearCache) loadState(dec *ckpt.Dec) error {
	if c.inflight != 0 {
		return fmt.Errorf("ckpt: cannot restore into a near cache with in-flight accesses")
	}
	n := dec.Count(17)
	if err := dec.Err(); err != nil {
		return err
	}
	clear(c.tags)
	clear(c.dirty)
	for i := 0; i < n; i++ {
		idx := dec.U64()
		line := dec.U64()
		dirty := dec.Bool()
		if err := dec.Err(); err != nil {
			return err
		}
		if idx >= c.lines {
			return fmt.Errorf("%w: near-cache set %d beyond %d sets", ckpt.ErrCorrupt, idx, c.lines)
		}
		c.tags[idx] = line
		if dirty {
			c.dirty[idx] = true
		}
	}
	c.hits = dec.U64()
	c.misses = dec.U64()
	c.wbacks = dec.U64()
	c.fillDrops = dec.U64()
	return c.dramC.LoadState(dec)
}

// SaveState serializes the whole system at an engine-idle cut: the engine
// clock, the iMC with every channel and DIMM, and the Memory-mode near cache
// when present. The system must be fully quiescent — in-flight requests and
// pending events carry completion closures that have no identity outside
// this process, which is why the driver drains its window and runs the
// engine dry before cutting (DESIGN.md §12).
func (s *System) SaveState(enc *ckpt.Enc) error {
	if s.cfg.Fault.Enabled() {
		return fmt.Errorf("ckpt: fault-injected runs cannot be checkpointed (injector streams are attempt-scoped)")
	}
	if !s.Drained() {
		return fmt.Errorf("ckpt: system busy; checkpoint only at an idle cut")
	}
	if n := s.eng.Pending(); n != 0 {
		return fmt.Errorf("ckpt: %d events still pending; checkpoint only at an idle cut", n)
	}
	if err := s.eng.SaveState(enc); err != nil {
		return err
	}
	if err := s.imc.SaveState(enc); err != nil {
		return err
	}
	enc.Bool(s.cache != nil)
	if s.cache != nil {
		return s.cache.saveState(enc)
	}
	return nil
}

// LoadState restores state captured by SaveState into a freshly built
// system with the same configuration.
func (s *System) LoadState(dec *ckpt.Dec) error {
	if s.cfg.Fault.Enabled() {
		return fmt.Errorf("ckpt: cannot restore into a fault-injected system")
	}
	if err := s.eng.LoadState(dec); err != nil {
		return err
	}
	if err := s.imc.LoadState(dec); err != nil {
		return err
	}
	hasCache := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasCache != (s.cache != nil) {
		return fmt.Errorf("%w: snapshot near-cache presence %v, this system %v",
			ckpt.ErrCorrupt, hasCache, s.cache != nil)
	}
	if s.cache != nil {
		return s.cache.loadState(dec)
	}
	return nil
}
