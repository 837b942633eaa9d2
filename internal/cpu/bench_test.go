package cpu

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// idealMem is a fixed-latency memory system in the style of Akita's ideal
// memory controller: it accepts every request and completes it latency
// cycles later through one respond event, with no timing model behind it.
// It isolates the core's own cost from any memory model.
type idealMem struct {
	eng      *sim.Engine
	latency  sim.Cycle
	inflight int
	respond  func(any)
}

func newIdealMem(latency sim.Cycle) *idealMem {
	m := &idealMem{eng: sim.NewEngine(), latency: latency}
	m.respond = func(a any) {
		m.inflight--
		a.(*mem.Request).Complete(m.eng.Now())
	}
	return m
}

func (m *idealMem) Engine() *sim.Engine    { return m.eng }
func (m *idealMem) CyclesPerNano() float64 { return dram.CyclesPerNano }
func (m *idealMem) Drained() bool          { return m.inflight == 0 }

func (m *idealMem) Submit(r *mem.Request) bool {
	r.Issued = m.eng.Now()
	m.inflight++
	m.eng.AfterFn(m.latency, m.respond, r)
	return true
}

// mixedWorkload interleaves every non-fence instruction kind, n/8 rounds
// of: a dependent load and a store that conflict in one L1/L2/L3 set (24
// lines 2 MiB apart cycle through 16 ways, so both keep missing, the store
// with an RFO, and dirty lines are written back), an NT store, a clwb, an
// L1-resident load and three compute instructions.
func mixedWorkload(n int) *SliceWorkload {
	w := &SliceWorkload{}
	for i := 0; len(w.Instrs) < n; i++ {
		far := uint64(i%24) * (2 << 20)
		w.Instrs = append(w.Instrs,
			Instr{IsMem: true, IsLoad: true, DependsOnLoad: true, Addr: far, Class: ClassRead},
			Instr{IsMem: true, Addr: far + 64, Class: ClassWrite},
			Instr{IsMem: true, NT: true, Addr: 60<<20 + uint64(i%64)*64, Class: ClassWrite},
			Instr{IsMem: true, Clwb: true, Addr: far + 64, Class: ClassWrite},
			Instr{IsMem: true, IsLoad: true, Addr: 4096, Class: ClassRead},
			Instr{}, Instr{}, Instr{},
		)
	}
	return w
}

// BenchmarkCoreRun measures the core alone: a warm core replays 4096 mixed
// instructions per op over the fixed-latency stub (~100 ns per access).
func BenchmarkCoreRun(b *testing.B) {
	core := New(DefaultConfig(), newIdealMem(133))
	w := mixedWorkload(4096)
	core.Run(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		core.Run(w)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w.Instrs)), "ns/instr")
}
