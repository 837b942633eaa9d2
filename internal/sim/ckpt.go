package sim

import (
	"fmt"

	"repro/internal/ckpt"
)

// pendingRecordBytes is the size of the per-event record (at, seq, callback
// ID, shard tag) that checkpoint format 3 places after the event count.
// SaveState always writes a count of 0, so no record is ever present;
// LoadState sizes the count by it, so a count the remaining bytes cannot
// hold reports ckpt.ErrTruncated rather than ckpt.ErrCorrupt.
const pendingRecordBytes = 8 + 8 + 8 + 4

// SaveState serializes an idle engine: the clock (now, seq), the execution
// counters (fired, peak pending), and a pending-event count of 0. A pending
// event, a parked poll or a lane slot stands for a callback with no
// identity outside this process, so saving one is an error; the vans
// driver cuts checkpoints at engine-idle barriers, where the queue is
// empty, no poll is parked and every slot has been passed.
func (e *Engine) SaveState(enc *ckpt.Enc) error {
	if len(e.parked) > 0 || e.laneN > 0 {
		return fmt.Errorf("sim: %d parked polls and %d lane slots (the first at cycle %d) cannot be checkpointed; cut at an idle engine",
			len(e.parked), e.laneN, e.passAt)
	}
	if e.Pending() > 0 {
		at, _ := e.NextAt()
		return fmt.Errorf("sim: %d pending events (earliest at cycle %d) cannot be checkpointed; cut at an idle engine",
			e.Pending(), at)
	}
	enc.U64(uint64(e.now))
	enc.U64(e.seq)
	enc.U64(e.fired)
	enc.U64(uint64(e.peak))
	enc.U32(0)
	return nil
}

// LoadState restores state captured by SaveState. A snapshot claiming
// pending events is corrupt: SaveState never writes one.
func (e *Engine) LoadState(dec *ckpt.Dec) error {
	now := Cycle(dec.U64())
	seq := dec.U64()
	fired := dec.U64()
	peak := int(dec.U64())
	n := dec.Count(pendingRecordBytes)
	if err := dec.Err(); err != nil {
		return err
	}
	if n != 0 {
		return fmt.Errorf("%w: engine snapshot claims %d pending events", ckpt.ErrCorrupt, n)
	}
	for _, p := range e.parked {
		p.idx = 0
	}
	for l := e.lanes; l != nil; {
		next := l.next
		l.slots, l.head, l.next = l.slots[:0], 0, nil
		l = next
	}
	*e = Engine{now: now, seq: seq, fired: fired, peak: peak}
	return nil
}

// SaveState serializes the RNG stream state (s0, s1).
func (r *RNG) SaveState(enc *ckpt.Enc) {
	enc.U64(r.s0)
	enc.U64(r.s1)
}

// LoadState restores the RNG stream state.
func (r *RNG) LoadState(dec *ckpt.Dec) {
	r.s0 = dec.U64()
	r.s1 = dec.U64()
}
