// Package cluster is the fleet layer of the serving stack: a front-door
// router that fans quote requests across N quoted backends. One quoted
// process tops out around 20k req/s; the ROADMAP's millions of users
// need a fleet, and a fleet needs three things a single process never
// did — a routing policy (who serves this request), admission control
// (who gets in at all), and health-aware ejection (who is quietly dead).
//
// The router supports three pluggable policies: round-robin,
// least-loaded (live in-flight counts per backend) and request-affinity
// (rendezvous hashing on the canonical quote request key, so identical
// quotes land on the same backend's plan cache). Admission is a
// per-tenant token bucket keyed by the X-Tenant header. Ejection is a
// three-state circuit breaker per backend (Breaker): consecutive
// failures eject, a cooldown admits one probe, and the probe's outcome
// readmits or re-ejects.
//
// The same Router serves every deployment: cmd/quotelb reverse-proxies
// to real quoted processes, while the benchmark's fleet and chaossim
// -fleet route to in-process quote handlers through the identical path.
package cluster

import (
	"net/http"

	"repro/internal/obs"
)

// Backend is one quoted instance behind the router.
type Backend struct {
	// Name identifies the backend — the address for proxied fleets.
	// Affinity hashing mixes it into the rendezvous score, so it must
	// be unique within the fleet and stable across restarts: renaming a
	// backend remaps its share of the key space.
	Name string
	// Handler serves the backend's HTTP API: an httpx.Proxy for a
	// remote quoted process, or an in-process quote handler in the
	// benchmark's fleet and chaossim -fleet.
	Handler http.Handler
	// Breaker guards the backend: consecutive failed forwards eject it
	// from routing, the cooldown admits one probe request, and the
	// probe's outcome readmits or re-ejects.
	Breaker *Breaker

	inflight obs.Gauge   // requests currently forwarded to this backend
	served   obs.Counter // successful forwards
	failures obs.Counter // failed forwards (5xx or transport error)
}

// NewBackend returns a routable backend with a default breaker.
func NewBackend(name string, h http.Handler) *Backend {
	return &Backend{Name: name, Handler: h, Breaker: &Breaker{}}
}

// InFlight returns the number of requests currently forwarded to the
// backend; the least-loaded policy orders on it.
func (b *Backend) InFlight() int64 { return b.inflight.Load() }

// Available reports whether the backend is routable — its breaker is
// closed. Ejected backends still receive paced probe requests through
// Breaker.Allow, which is how they earn readmission.
func (b *Backend) Available() bool { return !b.Breaker.Degraded() }
