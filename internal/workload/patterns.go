package workload

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// ChaseAccesses builds a dependent pointer-chasing load stream over a region
// of regionBytes: one cache-line load per hop following a single-cycle
// permutation, at most maxSteps hops (0 means one hop per block). The walk
// is deterministic under seed. Replay it with window 1 — every hop depends
// on the previous load. Shared by cmd/vans and nvmserved chase jobs.
func ChaseAccesses(regionBytes uint64, maxSteps int, seed uint64) []mem.Access {
	blocks := int(regionBytes / mem.CacheLine)
	if blocks < 2 {
		blocks = 2
	}
	steps := blocks
	if maxSteps > 0 && steps > maxSteps {
		steps = maxSteps
	}
	perm := sim.NewRNG(seed).PermCycle(blocks)
	accs := make([]mem.Access, 0, steps)
	at := 0
	for i := 0; i < steps; i++ {
		accs = append(accs, mem.Access{Op: mem.OpRead,
			Addr: uint64(at) * mem.CacheLine, Size: mem.CacheLine})
		at = int(perm[at])
	}
	return accs
}

// SeqAccesses builds a sequential stream of op covering totalBytes in
// cache-line steps starting at address zero.
func SeqAccesses(totalBytes uint64, op mem.Op) []mem.Access {
	accs := make([]mem.Access, 0, totalBytes/mem.CacheLine)
	for a := uint64(0); a < totalBytes; a += mem.CacheLine {
		accs = append(accs, mem.Access{Op: op, Addr: a, Size: mem.CacheLine})
	}
	return accs
}
