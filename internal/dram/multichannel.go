package dram

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// MultiChannel is a DRAM main-memory system of N independent channels with
// line-granular channel interleaving — the DDR4 4-channel configuration of
// Table V, and with one channel the slower-DRAM baselines of Figures 3 and
// 11. It implements mem.System.
type MultiChannel struct {
	eng       *sim.Engine
	channels  []*Controller
	postedLat sim.Cycle
	wq        int
	wqMax     int
	inflight  int

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

// interleaveBytes is the consecutive span per channel: one 64B line, the
// fine-grained interleaving of server iMCs.
const interleaveBytes = 64

// MultiChannelConfig configures the system.
type MultiChannelConfig struct {
	// Channels is the channel count (Table V: 4).
	Channels int
	// Channel configures each channel identically.
	Channel Config
	// WriteQueue bounds posted writes per system.
	WriteQueue int
	// PostedNs is the latency at which a posted write completes to its
	// issuer, while it drains through its channel behind the scenes.
	PostedNs float64
}

// DefaultMultiChannelConfig returns the Table V DRAM main memory.
func DefaultMultiChannelConfig() MultiChannelConfig {
	return MultiChannelConfig{
		Channels:   4,
		Channel:    DefaultConfig(),
		WriteQueue: 32,
		PostedNs:   20,
	}
}

// NewMultiChannel builds the system on a fresh engine.
func NewMultiChannel(cfg MultiChannelConfig) *MultiChannel {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	if cfg.WriteQueue == 0 {
		cfg.WriteQueue = 32
	}
	if cfg.PostedNs == 0 {
		cfg.PostedNs = 20
	}
	eng := sim.NewEngine()
	m := &MultiChannel{eng: eng, postedLat: NsToCycles(cfg.PostedNs), wqMax: cfg.WriteQueue}
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
	span := addr / interleaveBytes
	return int(span % n), (span/n)*interleaveBytes + addr%interleaveBytes
}

// Unroute inverts Route (property tests).
func (m *MultiChannel) Unroute(ch int, local uint64) uint64 {
	n := uint64(len(m.channels))
	if n == 1 {
		return local
	}
	span := local / interleaveBytes
	return (span*n+uint64(ch))*interleaveBytes + local%interleaveBytes
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
		m.eng.AfterFn(m.postedLat, m.posted, r)
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
