package workload

import (
	"repro/internal/cpu"
	"repro/internal/sim"
)

// CloudOptions tunes the Section V workload generators.
type CloudOptions struct {
	// Instructions is the stream length.
	Instructions int
	// Seed drives all random choices.
	Seed uint64
	// Mkpt marks pointer-chasing loads for Pre-translation (used only when
	// the optimization is enabled on the CPU and DIMM sides).
	Mkpt bool
	// Footprint is the working-set size in bytes (defaults per workload).
	Footprint uint64
}

func (o CloudOptions) withDefaults(defaultFootprint uint64) CloudOptions {
	if o.Instructions == 0 {
		o.Instructions = 200000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Footprint == 0 {
		o.Footprint = defaultFootprint
	}
	return o
}

// chain is a stable pointer graph (single-cycle permutation over nodes) so
// pointer-chasing traversals revisit the same links and Pre-translation can
// train. Node i lives at base + i*nodeStride.
type chain struct {
	perm       []int32
	base       uint64
	nodeStride uint64
	at         int
}

func newChain(rng *sim.RNG, nodes int, base, nodeStride uint64) *chain {
	return &chain{perm: rng.PermCycle(nodes), base: base, nodeStride: nodeStride}
}

func (c *chain) addrOf(i int) uint64 { return c.base + uint64(i)*c.nodeStride }

// hop emits one dependent load following the chain, optionally mkpt-marked.
func (c *chain) hop(mkpt bool) cpu.Instr {
	next := int(c.perm[c.at])
	in := cpu.Instr{
		IsMem: true, IsLoad: true, DependsOnLoad: true,
		Addr:     c.addrOf(c.at),
		Mkpt:     mkpt,
		NextAddr: c.addrOf(next),
		Class:    cpu.ClassRead,
	}
	c.at = next
	return in
}

// Redis models pmem-Redis GET/SET traffic: hash-bucket lookup followed by a
// short pointer chase per GET (the read-dominated pattern of Figure 12a),
// with ~10% SETs that persist via clwb+fence.
func Redis(o CloudOptions) cpu.Workload {
	o = o.withDefaults(256 << 20)
	rng := sim.NewRNG(o.Seed ^ 0x9ed15)
	nodes := int(o.Footprint / 4096)
	ch := newChain(rng, nodes, 0, 4096)
	g := &Gen{budget: o.Instructions, rng: rng}
	g.emit = func(g *Gen) {
		if g.rng.Float64() < 0.10 {
			// SET: update a value and persist it.
			addr := g.rng.Uint64n(o.Footprint) &^ 63
			g.push(
				cpu.Instr{IsMem: true, Addr: addr, Class: cpu.ClassWrite},
				cpu.Instr{IsMem: true, Clwb: true, Addr: addr, Class: cpu.ClassWrite},
				cpu.Instr{Fence: true, Class: cpu.ClassWrite},
			)
			g.compute(4)
			return
		}
		// GET: bucket index computation, then chase ~3 nodes.
		g.compute(3)
		for h := 0; h < 3; h++ {
			g.push(ch.hop(o.Mkpt))
		}
		g.compute(5)
	}
	return g
}

// YCSB models an update-heavy YCSB workload: zipfian record selection makes
// a handful of cache lines absorb most writes (the Top10 concentration of
// Figure 12b), each update persisted with clwb+fence.
func YCSB(o CloudOptions) cpu.Workload {
	o = o.withDefaults(64 << 20)
	rng := sim.NewRNG(o.Seed ^ 0x4c5b)
	records := o.Footprint / 1024
	zipf := NewZipf(rng, records, 0.99)
	g := &Gen{budget: o.Instructions, rng: rng}
	g.emit = func(g *Gen) {
		rec := zipf.Next() * 1024
		if g.rng.Float64() < 0.5 {
			// Update: write the record head and persist.
			g.push(
				cpu.Instr{IsMem: true, Addr: rec, Class: cpu.ClassWrite},
				cpu.Instr{IsMem: true, Clwb: true, Addr: rec, Class: cpu.ClassWrite},
				cpu.Instr{Fence: true, Class: cpu.ClassWrite},
			)
		} else {
			g.push(cpu.Instr{IsMem: true, IsLoad: true, Addr: rec, Class: cpu.ClassRead})
		}
		g.compute(6)
	}
	return g
}

// TPCC models an OLTP transaction mix: several indexed reads (some
// dependent), a handful of row updates, and a commit fence per transaction.
func TPCC(o CloudOptions) cpu.Workload {
	o = o.withDefaults(128 << 20)
	rng := sim.NewRNG(o.Seed ^ 0x79cc)
	nodes := int(o.Footprint / 4096)
	index := newChain(rng, nodes, 0, 4096)
	g := &Gen{budget: o.Instructions, rng: rng}
	g.emit = func(g *Gen) {
		// Index traversal: 2 hops.
		g.push(index.hop(o.Mkpt), index.hop(o.Mkpt))
		// Row reads with locality.
		row := g.rng.Uint64n(o.Footprint) &^ 63
		for i := 0; i < 3; i++ {
			g.push(cpu.Instr{IsMem: true, IsLoad: true,
				Addr: row + uint64(i)*64, Class: cpu.ClassRead})
		}
		g.compute(8)
		// Updates + redo-log append, then commit.
		logBase := g.state["log"] % (1 << 20)
		g.state["log"] += 256
		for i := 0; i < 2; i++ {
			g.push(
				cpu.Instr{IsMem: true, Addr: row + uint64(i)*64, Class: cpu.ClassWrite},
				cpu.Instr{IsMem: true, Clwb: true, Addr: row + uint64(i)*64, Class: cpu.ClassWrite},
			)
		}
		g.push(
			cpu.Instr{IsMem: true, NT: true, Addr: o.Footprint + logBase, Class: cpu.ClassWrite},
			cpu.Instr{Fence: true, Class: cpu.ClassWrite},
		)
		g.compute(6)
	}
	g.state = map[string]uint64{}
	return g
}

// FIOWrite models fio's sequential write workload: streaming non-temporal
// stores with a fence per 4KB block.
func FIOWrite(o CloudOptions) cpu.Workload {
	o = o.withDefaults(512 << 20)
	rng := sim.NewRNG(o.Seed ^ 0xf10)
	g := &Gen{budget: o.Instructions, rng: rng, state: map[string]uint64{}}
	g.emit = func(g *Gen) {
		pos := g.state["pos"]
		for l := 0; l < 4; l++ {
			g.push(cpu.Instr{IsMem: true, NT: true,
				Addr: (pos + uint64(l)*64) % o.Footprint, Class: cpu.ClassWrite})
		}
		pos += 256
		if pos%4096 == 0 {
			g.push(cpu.Instr{Fence: true, Class: cpu.ClassWrite})
		}
		g.state["pos"] = pos
		g.compute(2)
	}
	return g
}

// HashMap models the PMDK hashmap benchmark: hash a key, read the bucket,
// walk a short chain, then insert a node persistently.
func HashMap(o CloudOptions) cpu.Workload {
	o = o.withDefaults(128 << 20)
	rng := sim.NewRNG(o.Seed ^ 0x4a54)
	buckets := o.Footprint / 2 / 64
	nodesRegion := o.Footprint / 2
	nodes := int(nodesRegion / 4096)
	ch := newChain(rng, nodes, o.Footprint/2, 4096)
	g := &Gen{budget: o.Instructions, rng: rng}
	g.emit = func(g *Gen) {
		g.compute(4) // hash the key
		bucket := g.rng.Uint64n(buckets) * 64
		g.push(cpu.Instr{IsMem: true, IsLoad: true, Addr: bucket, Class: cpu.ClassRead})
		// Chain walk: 2 dependent hops.
		g.push(ch.hop(o.Mkpt), ch.hop(o.Mkpt))
		// Insert: write the node and relink the bucket, persist both.
		node := o.Footprint/2 + g.rng.Uint64n(nodesRegion)&^63
		g.push(
			cpu.Instr{IsMem: true, Addr: node, Class: cpu.ClassWrite},
			cpu.Instr{IsMem: true, Clwb: true, Addr: node, Class: cpu.ClassWrite},
			cpu.Instr{IsMem: true, Addr: bucket, Class: cpu.ClassWrite},
			cpu.Instr{IsMem: true, Clwb: true, Addr: bucket, Class: cpu.ClassWrite},
			cpu.Instr{Fence: true, Class: cpu.ClassWrite},
		)
		g.compute(3)
	}
	return g
}

// LinkedList models the PMDK linked-list benchmark: long pointer-chasing
// traversals with occasional persistent inserts — the most TLB-hostile
// pattern, and the best case for Pre-translation (Figure 13d).
func LinkedList(o CloudOptions) cpu.Workload {
	o = o.withDefaults(256 << 20)
	rng := sim.NewRNG(o.Seed ^ 0x111ed)
	nodes := int(o.Footprint / 4096)
	ch := newChain(rng, nodes, 0, 4096)
	g := &Gen{budget: o.Instructions, rng: rng, state: map[string]uint64{}}
	g.emit = func(g *Gen) {
		// Traverse 8 nodes.
		for h := 0; h < 8; h++ {
			g.push(ch.hop(o.Mkpt))
		}
		g.compute(2)
		// Insert every few traversals.
		g.state["n"]++
		if g.state["n"]%4 == 0 {
			node := g.rng.Uint64n(o.Footprint) &^ 63
			g.push(
				cpu.Instr{IsMem: true, Addr: node, Class: cpu.ClassWrite},
				cpu.Instr{IsMem: true, Clwb: true, Addr: node, Class: cpu.ClassWrite},
				cpu.Instr{Fence: true, Class: cpu.ClassWrite},
			)
		}
	}
	return g
}

// Cloud lists the six Section V workloads by name (the Figure 13d x-axis).
func Cloud(name string, o CloudOptions) cpu.Workload {
	switch name {
	case "FIO-write":
		return FIOWrite(o)
	case "YCSB":
		return YCSB(o)
	case "TPCC":
		return TPCC(o)
	case "HashMap":
		return HashMap(o)
	case "Redis":
		return Redis(o)
	case "LinkedList":
		return LinkedList(o)
	default:
		return nil
	}
}

// CloudNames returns the Figure 13d workload order.
func CloudNames() []string {
	return []string{"FIO-write", "YCSB", "TPCC", "HashMap", "Redis", "LinkedList"}
}
