package dram

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// MultiChannel is a DRAM main-memory system of N independent channels with
// line-granular channel interleaving — the DDR4 4-channel configuration of
// Table V. It implements mem.System.
type MultiChannel struct {
	eng      *sim.Engine
	channels []*Controller
	ilv      uint64
	wq       int
	wqMax    int
	inflight int

	// Completions bound once by NewMultiChannel, so an access allocates no
	// closure: readDone and posted complete the *mem.Request passed as
	// their arg, written retires a drained write, fencePoll completes the
	// fence passed as its arg once the system drains. retries recycles the
	// writes a full channel queue turned away.
	readDone  func(any)
	posted    func(any)
	written   func(any)
	fencePoll func(any)
	retries   sim.FreeList[mcRetry]
}

// mcRetry is a posted write waiting for room in its channel's queue.
type mcRetry struct {
	m     *MultiChannel
	ch    int
	local uint64
}

// mcPushWrite offers a waiting write to its channel again, every 16 cycles
// until the channel takes it.
func mcPushWrite(a any) {
	w := a.(*mcRetry)
	m := w.m
	if !m.channels[w.ch].Schedule(w.local, true, m.written, nil) {
		m.eng.AfterFn(16, mcPushWrite, w)
		return
	}
	m.retries.Put(w)
}

// MultiChannelConfig configures the system.
type MultiChannelConfig struct {
	// Channels is the channel count (Table V: 4).
	Channels int
	// Channel configures each channel identically.
	Channel Config
	// InterleaveBytes is the consecutive span per channel (default: one
	// 64B line, the fine-grained interleaving of server iMCs).
	InterleaveBytes uint64
	// WriteQueue bounds posted writes per system.
	WriteQueue int
}

// DefaultMultiChannelConfig returns the Table V DRAM main memory.
func DefaultMultiChannelConfig() MultiChannelConfig {
	return MultiChannelConfig{
		Channels:        4,
		Channel:         DefaultConfig(),
		InterleaveBytes: 64,
		WriteQueue:      32,
	}
}

// NewMultiChannel builds the system on a fresh engine.
func NewMultiChannel(cfg MultiChannelConfig) *MultiChannel {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	if cfg.InterleaveBytes == 0 {
		cfg.InterleaveBytes = 64
	}
	if cfg.WriteQueue == 0 {
		cfg.WriteQueue = 32
	}
	eng := sim.NewEngine()
	m := &MultiChannel{eng: eng, ilv: cfg.InterleaveBytes, wqMax: cfg.WriteQueue}
	for i := 0; i < cfg.Channels; i++ {
		m.channels = append(m.channels, NewController(eng, cfg.Channel))
	}
	m.readDone = func(a any) {
		m.inflight--
		a.(*mem.Request).Complete(eng.Now())
	}
	m.posted = func(a any) { a.(*mem.Request).Complete(eng.Now()) }
	m.written = func(any) { m.wq-- }
	m.fencePoll = func(a any) {
		if !m.Drained() {
			eng.AfterFn(16, m.fencePoll, a)
			return
		}
		a.(*mem.Request).Complete(eng.Now())
	}
	return m
}

// Engine implements mem.System.
func (m *MultiChannel) Engine() *sim.Engine { return m.eng }

// CyclesPerNano implements mem.System.
func (m *MultiChannel) CyclesPerNano() float64 { return CyclesPerNano }

// Drained implements mem.System.
func (m *MultiChannel) Drained() bool {
	if m.inflight > 0 || m.wq > 0 {
		return false
	}
	for _, ch := range m.channels {
		if !ch.Drained() {
			return false
		}
	}
	return true
}

// Channels exposes the per-channel controllers (stats, command traces).
func (m *MultiChannel) Channels() []*Controller { return m.channels }

// Route maps an address to (channel, local address).
func (m *MultiChannel) Route(addr uint64) (int, uint64) {
	n := uint64(len(m.channels))
	if n == 1 {
		return 0, addr
	}
	span := addr / m.ilv
	return int(span % n), (span/n)*m.ilv + addr%m.ilv
}

// Unroute inverts Route (property tests).
func (m *MultiChannel) Unroute(ch int, local uint64) uint64 {
	n := uint64(len(m.channels))
	if n == 1 {
		return local
	}
	span := local / m.ilv
	return (span*n+uint64(ch))*m.ilv + local%m.ilv
}

// Submit implements mem.System: reads route to their channel, writes are
// posted through a bounded write queue, fences drain everything.
func (m *MultiChannel) Submit(r *mem.Request) bool {
	now := m.eng.Now()
	switch r.Op {
	case mem.OpRead:
		ci, local := m.Route(r.Addr)
		if !m.channels[ci].Schedule(local, false, m.readDone, r) {
			return false
		}
		m.inflight++
		r.Issued = now
		return true
	case mem.OpWrite, mem.OpWriteNT, mem.OpClwb:
		if m.wq >= m.wqMax {
			return false
		}
		m.wq++
		r.Issued = now
		m.eng.AfterFn(NsToCycles(20), m.posted, r)
		ci, local := m.Route(r.Addr)
		if !m.channels[ci].Schedule(local, true, m.written, nil) {
			w := m.retries.Get()
			*w = mcRetry{m: m, ch: ci, local: local}
			m.eng.AfterFn(16, mcPushWrite, w)
		}
		return true
	case mem.OpFence:
		r.Issued = now
		m.eng.AfterFn(1, m.fencePoll, r)
		return true
	default:
		return false
	}
}
