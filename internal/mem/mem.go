// Package mem defines the memory request model shared by every timing model
// in the repository: operations, requests, the System interface that all
// simulated memory systems implement, and address/line arithmetic helpers.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Op is a memory operation kind. The set mirrors the instruction classes the
// paper's microbenchmarks use: cached loads/stores, non-temporal (cache
// bypassing) stores, cache-line write-back (clwb), and store fences (mfence).
type Op uint8

const (
	// OpRead is a load of Size bytes.
	OpRead Op = iota
	// OpWrite is a regular (write-allocate) store of Size bytes.
	OpWrite
	// OpWriteNT is a non-temporal store that bypasses the CPU caches and is
	// posted directly toward the memory controller.
	OpWriteNT
	// OpClwb requests write-back of the cache line containing Addr without
	// invalidating it.
	OpClwb
	// OpFence orders prior stores: it completes only once all previously
	// submitted writes are durable in the ADR domain (and, per the paper's
	// observation, flushes the on-DIMM LSQ).
	OpFence
)

// String returns the conventional mnemonic for the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "load"
	case OpWrite:
		return "store"
	case OpWriteNT:
		return "store-nt"
	case OpClwb:
		return "clwb"
	case OpFence:
		return "mfence"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// IsWrite reports whether the operation carries write data.
func (o Op) IsWrite() bool { return o == OpWrite || o == OpWriteNT }

// CacheLine is the CPU cache line size in bytes. All traffic that reaches a
// memory controller is in cache-line units.
const CacheLine = 64

// Request is one memory access flowing through a System. Requests are
// allocated by the driver and owned by the system until OnDone fires; the
// driver recycles a request once its OnDone has run, so a system must not
// touch a request after completing it.
type Request struct {
	// ID is a driver-assigned identifier, unique within a run.
	ID uint64
	// Op is the operation kind.
	Op Op
	// Addr is the physical byte address.
	Addr uint64
	// Size is the access size in bytes (<= CacheLine for CPU-issued ops).
	Size uint32
	// Data optionally carries write data / receives read data when the
	// system is run in functional mode. Nil means timing-only.
	Data []byte
	// Issued is stamped by the system when the request is accepted.
	Issued sim.Cycle
	// Done is stamped by the system just before OnDone fires.
	Done sim.Cycle
	// OnDone, if non-nil, is called exactly once when the request completes.
	OnDone func(*Request)
	// Err records an access fault attached by the system before completion
	// (an uncorrectable media read surfaces here as a typed error rather
	// than a panic). Nil means the access succeeded.
	Err error

	// Meta belongs to the issuer: it carries per-request context to OnDone,
	// so one callback bound once can serve recycled requests without a
	// closure each (the CPU core points it at the waiting instruction's
	// completion token, the driver at the request's stream). Systems never
	// read or write it.
	Meta any
}

// Latency returns the request's completion latency in cycles.
func (r *Request) Latency() sim.Cycle { return r.Done - r.Issued }

// Line returns the cache-line-aligned address containing r.Addr.
func (r *Request) Line() uint64 { return AlignDown(r.Addr, CacheLine) }

// complete stamps Done and fires OnDone. Systems should call Complete rather
// than invoking OnDone directly so stamping is uniform.
func (r *Request) Complete(now sim.Cycle) {
	r.Done = now
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// CompleteErr attaches an access fault and completes the request.
func (r *Request) CompleteErr(now sim.Cycle, err error) {
	r.Err = err
	r.Complete(now)
}

// System is a simulated memory system: the VANS model, the baseline
// emulators, and the empirical Optane reference model all implement it.
//
// The contract: Submit either accepts the request (true) or reports
// backpressure (false; the caller retries after advancing the engine).
// Accepted requests complete via Request.OnDone at some later engine cycle.
// All progress happens through the shared Engine.
type System interface {
	// Engine returns the event engine driving this system.
	Engine() *sim.Engine
	// Submit offers a request; false means the front queue is full.
	Submit(r *Request) bool
	// CyclesPerNano converts: ns = cycles / CyclesPerNano.
	CyclesPerNano() float64
	// Drained reports whether no requests are in flight.
	Drained() bool
}

// ToNs converts a cycle count of sys to nanoseconds.
func ToNs(sys System, c sim.Cycle) float64 { return float64(c) / sys.CyclesPerNano() }

// AlignDown rounds addr down to a multiple of align (a power of two or any
// positive integer).
func AlignDown(addr, align uint64) uint64 { return addr - addr%align }

// AlignUp rounds addr up to a multiple of align.
func AlignUp(addr, align uint64) uint64 {
	if r := addr % align; r != 0 {
		return addr + align - r
	}
	return addr
}

// LineSpan returns the sequence of block-aligned addresses of size blockSize
// touched by the byte range [addr, addr+size). It is the canonical
// access-splitting helper: callers fan a request out into one sub-access per
// returned block.
func LineSpan(addr uint64, size uint32, blockSize uint64) []uint64 {
	if size == 0 {
		return nil
	}
	first := AlignDown(addr, blockSize)
	last := AlignDown(addr+uint64(size)-1, blockSize)
	n := (last-first)/blockSize + 1
	blocks := make([]uint64, 0, n)
	for b := first; ; b += blockSize {
		blocks = append(blocks, b)
		if b == last {
			break
		}
	}
	return blocks
}

// Bytes formats a byte count with binary units, matching the paper's axis
// labels (64, 1K, 64K, 4M, 256M, ...).
func Bytes(n uint64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
