package optane

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// saveState serializes the LRU set as its keys in recency order, most
// recent first. Behavior depends only on that order, so the stamps and the
// tick stay out of the snapshot: loadState stamps the keys 1..n, oldest
// first.
func (s *lruSet) saveState(enc *ckpt.Enc) {
	enc.U32(uint32(s.lru.Len()))
	for _, e := range s.lru.Entries(nil) {
		enc.U64(e.Key)
	}
}

func (s *lruSet) loadState(dec *ckpt.Dec) error {
	entries := make([]sim.LRUEntry[struct{}], dec.Count(8))
	for i := range entries {
		entries[i] = sim.LRUEntry[struct{}]{Key: dec.U64(), LastUse: uint64(len(entries) - i)}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	return s.lru.Restore(entries, uint64(len(entries)))
}

// SaveState serializes the reference machine: its private engine, the noise
// RNG, the serving-pipe horizon, bus direction memory, wear counters sorted
// by block, tail/activity counters, and every per-DIMM behavioral structure
// in (wpq, lsq, rmw, ait) order. Requires an idle cut (no in-flight
// requests — their completions are closures).
func (s *System) SaveState(enc *ckpt.Enc) error {
	if s.inflight != 0 {
		return fmt.Errorf("ckpt: optane reference system has %d in-flight requests; checkpoint only at an idle cut", s.inflight)
	}
	if err := s.eng.SaveState(enc); err != nil {
		return err
	}
	s.rng.SaveState(enc)
	enc.U64(uint64(s.pipeFree))
	enc.Bool(s.lastWrite)
	blocks := make([]uint64, 0, len(s.wear))
	for b := range s.wear {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	enc.U32(uint32(len(blocks)))
	for _, b := range blocks {
		enc.U64(b)
		enc.U64(s.wear[b])
	}
	enc.U64(s.Tails)
	enc.U64(s.reads)
	enc.U64(s.writes)
	enc.U32(uint32(s.cfg.DIMMs))
	for i := 0; i < s.cfg.DIMMs; i++ {
		s.wpq[i].saveState(enc)
		s.lsq[i].saveState(enc)
		s.rmw[i].saveState(enc)
		s.ait[i].saveState(enc)
	}
	return nil
}

// LoadState restores state captured by SaveState into a system built from
// the same configuration.
func (s *System) LoadState(dec *ckpt.Dec) error {
	if s.inflight != 0 {
		return fmt.Errorf("ckpt: cannot restore into an optane reference system with in-flight requests")
	}
	if err := s.eng.LoadState(dec); err != nil {
		return err
	}
	s.rng.LoadState(dec)
	s.pipeFree = sim.Cycle(dec.U64())
	s.lastWrite = dec.Bool()
	n := dec.Count(16)
	if err := dec.Err(); err != nil {
		return err
	}
	clear(s.wear)
	for i := 0; i < n; i++ {
		b := dec.U64()
		s.wear[b] = dec.U64()
	}
	s.Tails = dec.U64()
	s.reads = dec.U64()
	s.writes = dec.U64()
	nd := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if nd != s.cfg.DIMMs {
		return fmt.Errorf("%w: snapshot has %d DIMMs, this system %d", ckpt.ErrCorrupt, nd, s.cfg.DIMMs)
	}
	for i := 0; i < s.cfg.DIMMs; i++ {
		if err := s.wpq[i].loadState(dec); err != nil {
			return err
		}
		if err := s.lsq[i].loadState(dec); err != nil {
			return err
		}
		if err := s.rmw[i].loadState(dec); err != nil {
			return err
		}
		if err := s.ait[i].loadState(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}
