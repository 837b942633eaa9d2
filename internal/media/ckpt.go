package media

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// saveState serializes the paged counter array as its allocated leaves.
// Field order: leaf count, then per leaf (index, 512 raw counters) in
// ascending index order.
func (p *pagedU64) saveState(enc *ckpt.Enc) {
	n := uint32(0)
	for _, l := range p.leaves {
		if l != nil {
			n++
		}
	}
	enc.U32(n)
	for li, l := range p.leaves {
		if l == nil {
			continue
		}
		enc.U64(uint64(li))
		enc.U64Array(l)
	}
}

func (p *pagedU64) loadState(dec *ckpt.Dec) error {
	n := dec.Count(8 + counterLeafSize*8)
	if err := dec.Err(); err != nil {
		return err
	}
	for i := range p.leaves {
		p.leaves[i] = nil
	}
	for i := 0; i < n; i++ {
		li := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if li >= uint64(len(p.leaves)) {
			return fmt.Errorf("%w: paged counter leaf %d beyond directory of %d",
				ckpt.ErrCorrupt, li, len(p.leaves))
		}
		l := make([]uint64, counterLeafSize)
		for j := range l {
			l[j] = dec.U64()
		}
		if err := dec.Err(); err != nil {
			return err
		}
		p.leaves[li] = l
	}
	return nil
}

// saveState serializes the functional data image as its allocated slabs.
// Field order: slab count, then per slab (index, length-prefixed bytes).
func (p *pagedData) saveState(enc *ckpt.Enc) {
	n := uint32(0)
	for _, l := range p.leaves {
		if l != nil {
			n++
		}
	}
	enc.U32(n)
	for li, l := range p.leaves {
		if l == nil {
			continue
		}
		enc.U64(uint64(li))
		enc.BytesField(l)
	}
}

func (p *pagedData) loadState(dec *ckpt.Dec) error {
	slabBytes := int(dataLeafBlocks * p.blockSize)
	n := dec.Count(8 + 4)
	if err := dec.Err(); err != nil {
		return err
	}
	for i := range p.leaves {
		p.leaves[i] = nil
	}
	for i := 0; i < n; i++ {
		li := dec.U64()
		slab := dec.BytesField()
		if err := dec.Err(); err != nil {
			return err
		}
		if li >= uint64(len(p.leaves)) {
			return fmt.Errorf("%w: data slab %d beyond directory of %d",
				ckpt.ErrCorrupt, li, len(p.leaves))
		}
		if len(slab) != slabBytes {
			return fmt.Errorf("%w: data slab %d is %d bytes, want %d",
				ckpt.ErrCorrupt, li, len(slab), slabBytes)
		}
		p.leaves[li] = slab
	}
	return nil
}

// cyclesToU64 converts a cycle slice for serialization without aliasing.
func cyclesToU64(cs []sim.Cycle) []uint64 {
	out := make([]uint64, len(cs))
	for i, c := range cs {
		out[i] = uint64(c)
	}
	return out
}

// SaveState serializes the media model's mutable state. Field order:
// partFree, readFree, writeFree, wear leaves, wearAt leaves, functional
// image presence + slabs, stats (reads, writes, bytes read, bytes written),
// read-latency histogram, write-latency histogram. Configuration (latencies,
// geometry) is not carried — the restoring side rebuilds from the same plan.
func (x *XPoint) SaveState(enc *ckpt.Enc) {
	enc.U64s(cyclesToU64(x.partFree))
	enc.U64s(cyclesToU64(x.readFree))
	enc.U64s(cyclesToU64(x.writeFree))
	x.wear.saveState(enc)
	x.wearAt.saveState(enc)
	enc.Bool(x.data != nil)
	if x.data != nil {
		x.data.saveState(enc)
	}
	enc.U64(x.stats.Reads)
	enc.U64(x.stats.Writes)
	enc.U64(x.stats.BytesRead)
	enc.U64(x.stats.BytesWrite)
	x.histRead.SaveState(enc)
	x.histWrite.SaveState(enc)
}

// LoadState restores state captured by SaveState into a model built from the
// same configuration.
func (x *XPoint) LoadState(dec *ckpt.Dec) error {
	loadCycles := func(dst []sim.Cycle) error {
		vs := dec.U64s()
		if err := dec.Err(); err != nil {
			return err
		}
		if len(vs) != len(dst) {
			return fmt.Errorf("%w: media port/partition vector of %d entries, want %d",
				ckpt.ErrCorrupt, len(vs), len(dst))
		}
		for i, v := range vs {
			dst[i] = sim.Cycle(v)
		}
		return nil
	}
	if err := loadCycles(x.partFree); err != nil {
		return err
	}
	if err := loadCycles(x.readFree); err != nil {
		return err
	}
	if err := loadCycles(x.writeFree); err != nil {
		return err
	}
	if err := x.wear.loadState(dec); err != nil {
		return err
	}
	if err := x.wearAt.loadState(dec); err != nil {
		return err
	}
	hasData := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasData != (x.data != nil) {
		return fmt.Errorf("%w: snapshot functional-store presence %v, this media %v",
			ckpt.ErrCorrupt, hasData, x.data != nil)
	}
	if hasData {
		if err := x.data.loadState(dec); err != nil {
			return err
		}
	}
	x.stats.Reads = dec.U64()
	x.stats.Writes = dec.U64()
	x.stats.BytesRead = dec.U64()
	x.stats.BytesWrite = dec.U64()
	if err := x.histRead.LoadState(dec); err != nil {
		return err
	}
	if err := x.histWrite.LoadState(dec); err != nil {
		return err
	}
	return dec.Err()
}
