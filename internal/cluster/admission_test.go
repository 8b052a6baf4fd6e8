package cluster

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced limiter clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLimiterBurstAndRefill covers the token-bucket core: a burst is
// admitted, the empty bucket rejects, and elapsed time refills at Rate.
func TestLimiterBurstAndRefill(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l := &Limiter{
		Tenants: map[string]Quota{"acme": {Rate: 10, Burst: 3}},
		Now:     clock.now,
	}
	for i := 0; i < 3; i++ {
		if !l.Allow("acme") {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	if l.Allow("acme") {
		t.Fatal("request beyond burst admitted")
	}
	if got := l.buckets["acme"].rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// 100 ms at 10 req/s refills exactly one token.
	clock.advance(100 * time.Millisecond)
	if !l.Allow("acme") {
		t.Fatal("refilled token rejected")
	}
	if l.Allow("acme") {
		t.Fatal("second request after a one-token refill admitted")
	}
	// A long idle period refills to Burst, not beyond.
	clock.advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if l.Allow("acme") {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d after long idle, want burst 3", admitted)
	}
}

// TestLimiterDefaultBucketShared checks that unknown tenants and the
// empty tenant draw from one shared default bucket, so invented tenant
// names cannot mint fresh quota or grow the bucket map.
func TestLimiterDefaultBucketShared(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l := &Limiter{Default: Quota{Rate: 1, Burst: 2}, Now: clock.now}
	if !l.Allow("") || !l.Allow("invented-1") {
		t.Fatal("default bucket rejected its burst")
	}
	if l.Allow("invented-2") {
		t.Fatal("a fresh invented tenant was admitted past the shared default burst")
	}
	if got := l.def.rejected.Load(); got != 1 {
		t.Fatalf("default rejected counter = %d, want 1", got)
	}
	if len(l.buckets) != 0 {
		t.Fatalf("unconfigured tenants grew the bucket map to %d entries", len(l.buckets))
	}
}

// TestLimiterUnlimited checks that a zero quota (and the zero Limiter)
// admit everything — admission control off, not closed.
func TestLimiterUnlimited(t *testing.T) {
	var l Limiter
	for i := 0; i < 1000; i++ {
		if !l.Allow("anyone") {
			t.Fatal("zero limiter rejected a request")
		}
	}
	l2 := &Limiter{Tenants: map[string]Quota{"free": {}}}
	for i := 0; i < 1000; i++ {
		if !l2.Allow("free") {
			t.Fatal("zero quota rejected a request")
		}
	}
}

// TestLimiterConcurrent admits from many goroutines under a finite
// bucket; the total admitted must never exceed burst + refill headroom.
func TestLimiterConcurrent(t *testing.T) {
	l := &Limiter{Tenants: map[string]Quota{"acme": {Rate: 1, Burst: 50}}}
	var wg sync.WaitGroup
	admitted := make([]int, 8)
	for g := range admitted {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if l.Allow("acme") {
					admitted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range admitted {
		total += n
	}
	// 800 instant requests against burst 50 at 1 req/s: a generous
	// bound still catches a broken lock or refill.
	if total < 50 || total > 60 {
		t.Fatalf("admitted %d of 800, want ≈50 (burst) with ≤10 refill slack", total)
	}
}
