package pool

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateBoundsConcurrency hammers a small gate from many goroutines
// and asserts the observed concurrency never exceeds the bound.
func TestGateBoundsConcurrency(t *testing.T) {
	const bound = 4
	g := NewGate(bound)
	if g.Cap() != bound {
		t.Fatalf("Cap() = %d, want %d", g.Cap(), bound)
	}
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			g.Release()
		}()
	}
	wg.Wait()
	if max.Load() > bound {
		t.Fatalf("observed %d concurrent holders, bound %d", max.Load(), bound)
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after drain", g.InFlight())
	}
}

// TestGateAcquireCancellation verifies the bound holds against a
// short-deadline Acquire and that a blocked Acquire returns the
// context error once cancelled.
func TestGateAcquireCancellation(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire on empty gate: %v", err)
	}
	short, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer stop()
	if err := g.Acquire(short); err != context.DeadlineExceeded {
		t.Fatalf("Acquire past the bound returned %v, want context.DeadlineExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not observe cancellation")
	}
	g.Release()
}

// TestGateQueuedCancellation queues many waiters behind a full gate,
// cancels a subset while they are still queued, and checks the
// cancelled waiters all observe their context error while the
// survivors drain through the gate one slot at a time — no slot is
// leaked to a cancelled waiter and no survivor starves.
func TestGateQueuedCancellation(t *testing.T) {
	const (
		waiters   = 10
		cancelled = 5
	)
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	cancels := make([]context.CancelFunc, waiters)
	cancelledErrs := make(chan error, cancelled)
	survivorErrs := make(chan error, waiters-cancelled)
	for i := 0; i < waiters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		ch := survivorErrs
		if i < cancelled {
			ch = cancelledErrs
		}
		go func(ctx context.Context, ch chan error) { ch <- g.Acquire(ctx) }(ctx, ch)
	}
	// The gate is full: give the waiters time to queue and check none
	// sneaked through.
	select {
	case err := <-cancelledErrs:
		t.Fatalf("waiter returned %v while the gate was full", err)
	case err := <-survivorErrs:
		t.Fatalf("waiter returned %v while the gate was full", err)
	case <-time.After(50 * time.Millisecond):
	}

	for i := 0; i < cancelled; i++ {
		cancels[i]()
	}
	for i := 0; i < cancelled; i++ {
		select {
		case err := <-cancelledErrs:
			if err != context.Canceled {
				t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled waiter did not observe cancellation while queued")
		}
	}
	select {
	case err := <-survivorErrs:
		t.Fatalf("survivor returned %v before any slot was released", err)
	default:
	}

	// Release the held slot and drain: each release admits exactly one
	// surviving waiter, and no slot leaks to a cancelled one.
	g.Release()
	for n := 0; n < waiters-cancelled; n++ {
		select {
		case err := <-survivorErrs:
			if err != nil {
				t.Fatalf("surviving waiter returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no surviving waiter acquired after release %d", n)
		}
		if in := g.InFlight(); in != 1 {
			t.Fatalf("InFlight() = %d with one admitted survivor, want 1", in)
		}
		g.Release()
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after drain, want 0", g.InFlight())
	}
	for _, cancel := range cancels[cancelled:] {
		cancel()
	}
}

// TestGateDefaultsAndMisuse covers the default sizing and the
// unmatched-release panic.
func TestGateDefaultsAndMisuse(t *testing.T) {
	if NewGate(0).Cap() <= 0 {
		t.Fatal("default gate has no capacity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	NewGate(1).Release()
}
