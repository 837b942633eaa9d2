// Crash-consistency checking: a replay ledger of ADR-durable writes and the
// power-fail cut driver that builds it.
//
// The ADR contract the paper's persistence claims rest on: a store is
// durable exactly when the iMC accepts it into the write pending queue
// (WPQ). Everything above that point — CPU store buffers, retried
// submissions — is lost on power failure; everything at or below it (WPQ,
// on-DIMM LSQ, RMW buffer, AIT path) is drained by stored energy and must
// survive. The model realizes the drain by committing functional write data
// at WPQ acceptance, so the checker's job is to verify that after recovery
// the persistent image contains exactly the accepted writes: every accepted
// write's final payload (no lost or torn lines) and nothing from writes
// that were never accepted (no ghost lines).
package fault

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
)

// FillPayloads attaches a deterministic, per-access-unique 64B payload to
// every write access in accs (in place). Unique payloads are what make the
// ledger's torn/stale checks meaningful: any mix of two writes, or an old
// value surviving an overwrite, is a byte mismatch.
func FillPayloads(accs []mem.Access, seed uint64) {
	for i := range accs {
		if !accs[i].Op.IsWrite() {
			continue
		}
		size := accs[i].Size
		if size == 0 {
			size = mem.CacheLine
		}
		accs[i].Data = Payload(seed, uint64(i), accs[i].Addr, int(size))
	}
}

// Payload returns the deterministic payload for write index idx at addr.
func Payload(seed, idx, addr uint64, size int) []byte {
	rng := sim.NewRNG(seed ^ (idx+1)*0x9e3779b97f4a7c15 ^ addr)
	out := make([]byte, size)
	for i := 0; i < size; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// Ledger records, during a run to a power-fail cut, which writes reached the
// ADR domain (WPQ acceptance) and with what payload. It is the expected
// recovery image the checker compares against.
type Ledger struct {
	// last maps a 64B line address to the payload of the last accepted
	// write to it (acceptance order).
	last map[uint64][]byte
	// touched is every line any write in the stream targets, accepted or
	// not, for ghost detection.
	touched map[uint64]bool

	accepted int
	lost     int
	endCycle sim.Cycle
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{last: make(map[uint64][]byte), touched: make(map[uint64]bool)}
}

// Accepted returns the count of writes accepted into the ADR domain.
func (l *Ledger) Accepted() int { return l.accepted }

// Lost returns the count of stream writes never accepted at the cut.
func (l *Ledger) Lost() int { return l.lost }

// DurableLines returns the number of distinct durable lines.
func (l *Ledger) DurableLines() int { return len(l.last) }

// EndCycle returns the engine cycle the cut run stopped at.
func (l *Ledger) EndCycle() sim.Cycle { return l.endCycle }

// record notes one accepted write.
func (l *Ledger) record(addr uint64, data []byte) {
	line := mem.AlignDown(addr, mem.CacheLine)
	cp := make([]byte, len(data))
	copy(cp, data)
	l.last[line] = cp
	l.accepted++
}

// RunToCut replays accs into sys with up to window outstanding requests,
// then cuts power at cycle cut: no submission is attempted and no engine
// event runs past the cut (mem.Driver.RunWindowUntil). The returned ledger
// holds every write the system accepted (the ADR-durable set at the cut);
// writes still being retried against a full queue — the model's analogue
// of data in CPU buffers — are counted as lost.
//
// Unlike a full driver run, RunToCut never drains: power is gone. The
// caller recovers the system (vans.System.Recover) and verifies with
// Ledger.Verify.
func RunToCut(sys mem.System, accs []mem.Access, window int, cut sim.Cycle) *Ledger {
	led := NewLedger()
	// The stream is accepted in order, so its first n accesses are the
	// accepted ones, in acceptance order.
	n := mem.NewDriver(sys).RunWindowUntil(accs, window, cut)
	for i, a := range accs {
		if !a.Op.IsWrite() {
			continue
		}
		led.touched[mem.AlignDown(a.Addr, mem.CacheLine)] = true
		if i < n {
			led.record(a.Addr, a.Data)
		} else {
			led.lost++
		}
	}
	led.endCycle = sys.Engine().Now()
	return led
}

// Mismatch is one crash-consistency violation found by Verify.
type Mismatch struct {
	// Line is the 64B line address.
	Line uint64 `json:"line"`
	// Kind classifies the violation: "lost" (an accepted write is absent),
	// "torn" (the line holds bytes from no single accepted write), or
	// "ghost" (a never-accepted write became visible).
	Kind string `json:"kind"`
	// Detail is a human-readable byte-level summary.
	Detail string `json:"detail"`
}

// Verify compares the recovered persistent image (readable through read,
// e.g. vans.System.ReadData on a recovered system) against the ledger:
// every durable line must hold exactly its last accepted payload, and every
// touched-but-never-durable line must still be zero. It returns the
// violations found (nil when consistent).
func (l *Ledger) Verify(read func(addr uint64, n int) []byte) []Mismatch {
	var out []Mismatch
	for line, want := range l.last {
		got := read(line, len(want))
		if bytes.Equal(got, want) {
			continue
		}
		kind := "torn"
		if allZero(got) {
			kind = "lost"
		}
		out = append(out, Mismatch{
			Line: line, Kind: kind,
			Detail: fmt.Sprintf("want %x.. got %x..", want[:8], got[:8]),
		})
	}
	for line := range l.touched {
		if _, durable := l.last[line]; durable {
			continue
		}
		if got := read(line, mem.CacheLine); !allZero(got) {
			out = append(out, Mismatch{
				Line: line, Kind: "ghost",
				Detail: fmt.Sprintf("never-accepted write visible: %x..", got[:8]),
			})
		}
	}
	// Map iteration order is random; reports must be byte-identical across
	// runs, so order by line address.
	sort.Slice(out, func(a, b int) bool { return out[a].Line < out[b].Line })
	return out
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// CrashReport is the outcome of one power-fail + recovery check. It holds
// only simulation-domain quantities, so it is byte-identical across runs
// and workers for a given plan.
type CrashReport struct {
	// CutCycle is the requested power-fail cycle.
	CutCycle uint64 `json:"cut_cycle"`
	// EndCycle is the engine cycle the run actually stopped at (the last
	// event at or before the cut; equals CutCycle unless the run finished
	// or stalled earlier).
	EndCycle uint64 `json:"end_cycle"`
	// AcceptedWrites reached the ADR domain before the cut.
	AcceptedWrites int `json:"accepted_writes"`
	// LostWrites were still outside the ADR domain at the cut.
	LostWrites int `json:"lost_writes"`
	// DurableLines is the distinct durable 64B line count.
	DurableLines int `json:"durable_lines"`
	// Consistent reports whether recovery matched the ledger exactly.
	Consistent bool `json:"consistent"`
	// Mismatches lists the violations (empty when consistent).
	Mismatches []Mismatch `json:"mismatches,omitempty"`
}
