package cluster

import "sync"

// Retry-budget defaults: each admitted request earns DefaultRetryRatio
// retry tokens, the pool holding at most DefaultRetryBurst.
const (
	DefaultRetryRatio = 0.2
	DefaultRetryBurst = 10
)

// Budget bounds the router's extra work under failure: a token pool
// that admitted requests pay into (Ratio tokens each) and every retry,
// failover or hedge withdraws from (one token each). Under a total
// backend outage the fleet's retry traffic is then capped at roughly
// Ratio× the request rate instead of multiplying by the fleet size —
// the classic retry-storm amplification. The pool starts full so a
// cold router can still fail over its very first requests. The zero
// value is ready; a Budget is safe for concurrent use.
type Budget struct {
	// Ratio is the token fraction each request deposits; 0 selects
	// DefaultRetryRatio.
	Ratio float64
	// Burst caps the pool; 0 selects DefaultRetryBurst.
	Burst float64

	mu     sync.Mutex
	tokens float64
	primed bool
}

// init fills defaults and fills the pool, under mu.
func (b *Budget) initLocked() {
	if b.primed {
		return
	}
	if b.Ratio <= 0 {
		b.Ratio = DefaultRetryRatio
	}
	if b.Burst <= 0 {
		b.Burst = DefaultRetryBurst
	}
	b.tokens = b.Burst
	b.primed = true
}

// Deposit credits one admitted request's share of retry headroom.
func (b *Budget) Deposit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.initLocked()
	b.tokens += b.Ratio
	if b.tokens > b.Burst {
		b.tokens = b.Burst
	}
}

// Withdraw takes one token for a retry or hedge, reporting false when
// the pool cannot cover it — the caller must then stop retrying.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.initLocked()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
