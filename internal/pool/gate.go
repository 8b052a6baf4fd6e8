package pool

import (
	"context"
	"runtime"
)

// Gate bounds the number of operations admitted concurrently: the
// server-side counterpart of Run's bounded batch fan-out. Where Run
// owns a fixed batch, a Gate fronts an open-ended request stream — an
// HTTP handler Acquires before starting an expensive evaluation and
// Releases when done, so an arbitrary number of in-flight requests
// queue at the gate instead of oversubscribing the machine.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting at most n concurrent holders;
// n <= 0 selects 2×GOMAXPROCS (enough to keep every core busy while
// one batch drains).
func NewGate(n int) *Gate {
	if n <= 0 {
		n = 2 * runtime.GOMAXPROCS(0)
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning the
// context's error in the latter case. A free slot is taken even when
// ctx is already cancelled concurrently with the slot becoming
// available; callers always pair a nil-error Acquire with Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by a successful Acquire.
// Calls must pair one-to-one with acquisitions.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic("pool: Gate.Release without matching Acquire")
	}
}
