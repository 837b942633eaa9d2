// Package breaker implements the consecutive-failure circuit breaker shared
// by nvmserved (guarding the simulation engine) and the cluster layer
// (tracking remote peer health). The state machine is the classic three-state
// breaker: closed while healthy, open after Threshold consecutive failures,
// and half-open after a cooldown, admitting exactly one probe whose outcome
// closes or re-opens the circuit.
package breaker

import (
	"sync"
	"time"
)

// Breaker states.
const (
	Closed   = "closed"
	Open     = "open"
	HalfOpen = "half-open"
)

// Breaker is a consecutive-failure circuit breaker: when threshold failures
// occur in a row with no intervening success, the breaker opens and Allow
// refuses until a cooldown passes. The first Allow after the cooldown is
// admitted as a single probe (half-open); its outcome closes or re-opens the
// circuit. A negative threshold disables the breaker (Allow always true).
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state       string
	consecutive int
	openedAt    time.Time
	probing     bool
	opens       uint64
}

// New returns a closed Breaker with the given threshold and cooldown.
func New(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, state: Closed}
}

// Allow reports whether a new attempt may proceed, and the suggested
// retry-after duration when it may not.
func (b *Breaker) Allow() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.threshold < 0 {
		return true, 0 // breaker disabled
	}
	switch b.state {
	case Closed:
		return true, 0
	case Open:
		if wait := b.cooldown - time.Since(b.openedAt); wait > 0 {
			return false, wait
		}
		// Cooldown elapsed: admit exactly one probe.
		b.state = HalfOpen
		b.probing = true
		return true, 0
	default: // half-open
		if b.probing {
			return false, b.cooldown
		}
		b.probing = true
		return true, 0
	}
}

// Ready reports whether an attempt would currently be admitted, without
// consuming the half-open probe slot. Routing layers use this to order
// candidates; the eventual attempt still goes through Allow.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.threshold < 0 {
		return true
	}
	switch b.state {
	case Closed:
		return true
	case Open:
		return time.Since(b.openedAt) >= b.cooldown
	default: // half-open
		return !b.probing
	}
}

// RecordSuccess notes a successful attempt; any success closes the circuit.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.consecutive = 0
	b.probing = false
}

// RecordFailure notes a failure; threshold consecutive failures (or a failed
// half-open probe) open the circuit.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.threshold < 0 {
		return
	}
	b.consecutive++
	if b.state == HalfOpen || b.consecutive >= b.threshold {
		if b.state != Open {
			b.opens++
		}
		b.state = Open
		b.openedAt = time.Now()
		b.probing = false
	}
}

// Snapshot returns (state, consecutive failures, times opened).
func (b *Breaker) Snapshot() (string, int, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Present the post-cooldown open state as half-open-eligible only once a
	// probe is actually admitted; reporting stays simple and truthful.
	return b.state, b.consecutive, b.opens
}
