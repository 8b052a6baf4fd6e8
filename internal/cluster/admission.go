package cluster

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Quota is one token-bucket admission rate.
type Quota struct {
	// Rate is tokens (requests) refilled per second; 0 or negative
	// admits everything — "no quota configured" rather than "closed".
	Rate float64
	// Burst is the bucket capacity — how far a tenant may briefly
	// exceed Rate; values below 1 are raised to 1 so a positive Rate
	// always admits single requests.
	Burst float64
}

// unlimited reports whether the quota admits everything.
func (q Quota) unlimited() bool { return q.Rate <= 0 }

// bucket is one tenant's token bucket plus its rejection counter.
type bucket struct {
	mu     sync.Mutex
	quota  Quota
	tokens float64
	last   time.Time

	rejected obs.Counter
}

// take refills by elapsed time and spends one token if available.
func (b *bucket) take(now time.Time) bool {
	if b.quota.unlimited() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	burst := b.quota.Burst
	if burst < 1 {
		burst = 1
	}
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.quota.Rate
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		b.rejected.Inc()
		return false
	}
	b.tokens--
	return true
}

// Limiter is per-tenant token-bucket admission control. Tenants named
// in Tenants get a private bucket under their own quota; every other
// request — no X-Tenant header, or an unrecognised one — shares the
// Default bucket, so an unbounded stream of invented tenant names can
// never grow the bucket map. The zero value admits everything. A
// Limiter is safe for concurrent use.
type Limiter struct {
	// Default is the shared bucket's quota for unconfigured tenants.
	Default Quota
	// Tenants maps tenant name → private quota.
	Tenants map[string]Quota
	// Now is overridable for tests; nil selects time.Now.
	Now func() time.Time

	once    sync.Once
	def     bucket
	buckets map[string]*bucket
}

// init lazily materialises the buckets.
func (l *Limiter) init() {
	l.once.Do(func() {
		l.def.quota = l.Default
		l.buckets = make(map[string]*bucket, len(l.Tenants))
		for name, q := range l.Tenants {
			l.buckets[name] = &bucket{quota: q}
		}
	})
}

// now returns the limiter's clock reading.
func (l *Limiter) now() time.Time {
	if l.Now != nil {
		return l.Now()
	}
	return time.Now()
}

// Allow spends one admission token for tenant and reports whether the
// request may proceed. The empty tenant (no X-Tenant header) and any
// unconfigured tenant draw from the shared default bucket.
func (l *Limiter) Allow(tenant string) bool {
	_, ok := l.Charge(tenant)
	return ok
}

// Charge is Allow that also names the bucket it charged: tenant itself
// when configured, "default" for the shared bucket — the name Rejected
// reports the bucket's rejections under.
func (l *Limiter) Charge(tenant string) (bucket string, ok bool) {
	l.init()
	b := l.buckets[tenant]
	if b == nil {
		b, tenant = &l.def, "default"
	}
	return tenant, b.take(l.now())
}
