package cluster

import (
	"sync"
	"time"
)

// Breaker defaults.
const (
	// DefaultBreakerThreshold is how many consecutive failed forwards
	// open the breaker and eject the backend.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker keeps the
	// backend ejected before admitting a half-open probe.
	DefaultBreakerCooldown = 10 * time.Second
)

// breakerState is the classic three-state circuit-breaker lifecycle.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a consecutive-failure circuit breaker guarding one
// backend: after Threshold straight failures it opens and the router
// stops sending the backend traffic; after Cooldown one half-open probe
// is admitted, and its outcome closes or re-opens the circuit. The zero
// value is ready and selects the defaults. A Breaker is safe for
// concurrent use.
type Breaker struct {
	// Threshold is the consecutive failures that open the breaker;
	// 0 selects DefaultBreakerThreshold.
	Threshold int
	// Cooldown is the open period before a half-open probe; 0 selects
	// DefaultBreakerCooldown.
	Cooldown time.Duration
	// Now is overridable for tests; nil selects time.Now.
	Now func() time.Time

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
}

// now returns the breaker's clock reading.
func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

// Allow reports whether an upstream call may proceed. In the open
// state it returns false until the cooldown elapses, then admits
// exactly one probe (probe true) and holds further callers off until
// the probe resolves via Success or Failure.
func (b *Breaker) Allow() (allowed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		cd := b.Cooldown
		if cd <= 0 {
			cd = DefaultBreakerCooldown
		}
		if b.now().Sub(b.openedAt) < cd {
			return false, false
		}
		b.state = breakerHalfOpen
		return true, true
	default: // half-open: a probe is already in flight
		return false, false
	}
}

// Success records a healthy upstream call, closing the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
}

// Failure records a failed upstream call and reports whether this one
// opened the circuit (for metrics: each open is counted once).
func (b *Breaker) Failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	b.failures++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.failures >= threshold) {
		b.state = breakerOpen
		b.openedAt = b.now()
		return true
	}
	return false
}

// Degraded reports whether the circuit is not closed — the backend is
// ejected, or on probation while its probe is in flight.
func (b *Breaker) Degraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerClosed
}
