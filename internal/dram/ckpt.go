package dram

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// SaveState serializes the controller's mutable state. Checkpoints cut at
// engine-idle barriers, so the request queue must be empty and no access may
// be in flight — a queued *mem.Request carries a completion closure that has
// no identity outside this process. What persists across idle is the bank and
// rank timing state (open rows, earliest-issue cycles, tFAW windows, refresh
// deadlines), the data-bus horizon, burst-spacing history, and the stats.
//
// Field order: bank count, per-bank (open, openRow, nextACT, nextPRE,
// nextRW); rank count, per-rank (lastACTs, nextACT, nextRD, nextRefresh);
// busFree, lastBurstBG, lastBurstAt, haveBurst; stats.
func (c *Controller) SaveState(enc *ckpt.Enc) error {
	if !c.Drained() || c.busy {
		return fmt.Errorf("ckpt: DRAM controller has in-flight requests; checkpoint only at an idle cut")
	}
	if c.cfg.TapCommands {
		return fmt.Errorf("ckpt: DRAM controller with a command trace tap cannot be checkpointed")
	}
	enc.U32(uint32(len(c.banks)))
	for i := range c.banks {
		b := &c.banks[i]
		enc.Bool(b.open)
		enc.U64(b.openRow)
		enc.U64(uint64(b.nextACT))
		enc.U64(uint64(b.nextPRE))
		enc.U64(uint64(b.nextRW))
	}
	enc.U32(uint32(len(c.ranks)))
	for i := range c.ranks {
		rk := &c.ranks[i]
		acts := make([]uint64, len(rk.lastACTs))
		for j, a := range rk.lastACTs {
			acts[j] = uint64(a)
		}
		enc.U64s(acts)
		enc.U64(uint64(rk.nextACT))
		enc.U64(uint64(rk.nextRD))
		enc.U64(uint64(rk.nextRefresh))
	}
	enc.U64(uint64(c.busFree))
	enc.U64(uint64(c.lastBurstBG))
	enc.U64(uint64(c.lastBurstAt))
	enc.Bool(c.haveBurst)
	enc.U64(c.stats.Reads)
	enc.U64(c.stats.Writes)
	enc.U64(c.stats.RowHits)
	enc.U64(c.stats.RowMisses)
	enc.U64(c.stats.RowConf)
	enc.U64(c.stats.Refreshes)
	enc.U64(uint64(c.stats.DataCycles))
	c.histAccess.SaveState(enc)
	return nil
}

// LoadState restores state captured by SaveState into a controller built
// from the same configuration.
func (c *Controller) LoadState(dec *ckpt.Dec) error {
	if !c.Drained() || c.busy {
		return fmt.Errorf("ckpt: cannot restore into a DRAM controller with in-flight requests")
	}
	nb := dec.Count(26)
	if err := dec.Err(); err != nil {
		return err
	}
	if nb != len(c.banks) {
		return fmt.Errorf("%w: snapshot has %d DRAM banks, this controller %d",
			ckpt.ErrCorrupt, nb, len(c.banks))
	}
	for i := range c.banks {
		b := &c.banks[i]
		b.open = dec.Bool()
		b.openRow = dec.U64()
		b.nextACT = sim.Cycle(dec.U64())
		b.nextPRE = sim.Cycle(dec.U64())
		b.nextRW = sim.Cycle(dec.U64())
	}
	nr := dec.Count(4 + 24)
	if err := dec.Err(); err != nil {
		return err
	}
	if nr != len(c.ranks) {
		return fmt.Errorf("%w: snapshot has %d DRAM ranks, this controller %d",
			ckpt.ErrCorrupt, nr, len(c.ranks))
	}
	for i := range c.ranks {
		rk := &c.ranks[i]
		acts := dec.U64s()
		if err := dec.Err(); err != nil {
			return err
		}
		if len(acts) > 4 {
			return fmt.Errorf("%w: rank tFAW window of %d activations", ckpt.ErrCorrupt, len(acts))
		}
		rk.lastACTs = rk.lastACTs[:0]
		for _, a := range acts {
			rk.lastACTs = append(rk.lastACTs, sim.Cycle(a))
		}
		rk.nextACT = sim.Cycle(dec.U64())
		rk.nextRD = sim.Cycle(dec.U64())
		rk.nextRefresh = sim.Cycle(dec.U64())
	}
	c.busFree = sim.Cycle(dec.U64())
	c.lastBurstBG = int(dec.U64())
	c.lastBurstAt = sim.Cycle(dec.U64())
	c.haveBurst = dec.Bool()
	c.stats.Reads = dec.U64()
	c.stats.Writes = dec.U64()
	c.stats.RowHits = dec.U64()
	c.stats.RowMisses = dec.U64()
	c.stats.RowConf = dec.U64()
	c.stats.Refreshes = dec.U64()
	c.stats.DataCycles = sim.Cycle(dec.U64())
	if err := c.histAccess.LoadState(dec); err != nil {
		return err
	}
	return dec.Err()
}
