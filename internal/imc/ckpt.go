package imc

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// SaveState serializes one channel: the DDR-T bus horizon and direction
// memory, the WPQ, the drain engine's held line, in-flight counters, and the
// activity counters. The attached DIMM is serialized separately by the
// system-level orchestrator so the snapshot layout mirrors the topology.
func (ch *Channel) SaveState(enc *ckpt.Enc) {
	enc.U64(uint64(ch.bus.free))
	enc.Bool(ch.bus.lastDir)
	enc.Bool(ch.bus.haveDir)
	ch.wpq.SaveState(enc)
	enc.U64(uint64(ch.rpqInFlight))
	enc.Bool(ch.draining)
	enc.U64(ch.drainLine)
	enc.Bool(ch.haveDrain)
	enc.U64(ch.reads)
	enc.U64(ch.writes)
	enc.U64(ch.forwards)
	ch.histWait.SaveState(enc)
}

// LoadState restores a channel captured by SaveState.
func (ch *Channel) LoadState(dec *ckpt.Dec) error {
	ch.bus.free = sim.Cycle(dec.U64())
	ch.bus.lastDir = dec.Bool()
	ch.bus.haveDir = dec.Bool()
	if err := ch.wpq.LoadState(dec); err != nil {
		return err
	}
	ch.rpqInFlight = int(dec.U64())
	ch.draining = dec.Bool()
	ch.drainLine = dec.U64()
	ch.haveDrain = dec.Bool()
	ch.reads = dec.U64()
	ch.writes = dec.U64()
	ch.forwards = dec.U64()
	if err := ch.histWait.LoadState(dec); err != nil {
		return err
	}
	return dec.Err()
}

// SaveState serializes the iMC: its direct counters, then every channel and
// its DIMM in channel order.
func (m *IMC) SaveState(enc *ckpt.Enc) error {
	enc.U64(m.stats.Reads)
	enc.U64(m.stats.Writes)
	enc.U64(m.stats.WPQMerges)
	enc.U64(m.stats.Forwards)
	enc.U64(m.stats.Fences)
	enc.U32(uint32(len(m.channels)))
	for _, ch := range m.channels {
		ch.SaveState(enc)
		if err := ch.dimm.SaveState(enc); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores an iMC captured by SaveState into one built from the
// same configuration.
func (m *IMC) LoadState(dec *ckpt.Dec) error {
	m.stats.Reads = dec.U64()
	m.stats.Writes = dec.U64()
	m.stats.WPQMerges = dec.U64()
	m.stats.Forwards = dec.U64()
	m.stats.Fences = dec.U64()
	n := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(m.channels) {
		return fmt.Errorf("%w: snapshot has %d iMC channels, this controller %d",
			ckpt.ErrCorrupt, n, len(m.channels))
	}
	for _, ch := range m.channels {
		if err := ch.LoadState(dec); err != nil {
			return err
		}
		if err := ch.dimm.LoadState(dec); err != nil {
			return err
		}
	}
	return nil
}
