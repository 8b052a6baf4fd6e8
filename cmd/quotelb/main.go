// Command quotelb is the fleet's front door: it fans /v1/quote
// requests across N quoted backends with a pluggable routing policy,
// per-tenant token-bucket admission control, and health-aware backend
// ejection with buffered failover — a dying backend costs a retry, not
// a client-visible error.
//
// Policies:
//
//	affinity      rendezvous-hash the canonical request key, so
//	              identical quotes land on the same backend's plan
//	              cache (the default)
//	least-loaded  prefer the backend with the fewest in-flight requests
//	round-robin   cycle through the fleet
//
// Usage:
//
//	quoted -addr :8081 -preset high &
//	quoted -addr :8082 -preset high &
//	quoted -addr :8083 -preset high &
//	quotelb -addr :8080 -backends http://localhost:8081,http://localhost:8082,http://localhost:8083
//	curl -s localhost:8080/v1/quote -d '{"work_hours":20,"deadline_hours":30,"history_window":12}'
//
// Admission control: -rate/-burst set the shared default bucket and
// repeated -quota tenant=rate:burst flags give named tenants (the
// X-Tenant request header) private buckets; exhausted quotas answer
// 429 with a dedicated metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpx"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quotelb: ")

	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated quoted base URLs (required)")
	policyName := flag.String("policy", "affinity", "routing policy: affinity, least-loaded, round-robin")
	rate := flag.Float64("rate", 0, "default-bucket admission rate in req/s (0: unlimited)")
	burst := flag.Float64("burst", 0, "default-bucket burst (0: same as -rate)")
	maxAttempts := flag.Int("max-attempts", 0, "forward attempts per request (0: every backend once)")
	retryRatio := flag.Float64("retry-budget-ratio", 0, "retry tokens each admitted request earns; failovers and hedges each spend one (0: unbounded failover)")
	retryBurst := flag.Float64("retry-budget-burst", cluster.DefaultRetryBurst, "retry token pool cap when -retry-budget-ratio is set")
	hedgeAfter := flag.Duration("hedge-after", 0, "launch one speculative attempt at the next backend if the first has not answered within this (0: no hedging; deadline-aware and budget-gated)")
	breakerFails := flag.Int("breaker-failures", cluster.DefaultBreakerThreshold, "consecutive forward failures that eject a backend")
	breakerCooldown := flag.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown, "ejection period before a readmission probe")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "active /healthz probe interval for ejected backends (0: passive only)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceSpans := flag.Int("trace-spans", 0, "trace routing spans into a ring of this size, served at /debug/trace (0: disabled)")

	quotas := map[string]cluster.Quota{}
	flag.Func("quota", "per-tenant quota as tenant=rate:burst (repeatable)", func(s string) error {
		tenant, q, err := parseQuota(s)
		if err != nil {
			return err
		}
		quotas[tenant] = q
		return nil
	})

	flag.Parse()

	if *backends == "" {
		log.Fatal("-backends is required")
	}
	fleet, err := parseBackends(*backends, *breakerFails, *breakerCooldown)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := cluster.ParsePolicy(*policyName)
	if err != nil {
		log.Fatal(err)
	}
	var limiter *cluster.Limiter
	if *rate > 0 || len(quotas) > 0 {
		b := *burst
		if b <= 0 {
			b = *rate
		}
		limiter = &cluster.Limiter{Default: cluster.Quota{Rate: *rate, Burst: b}, Tenants: quotas}
	}
	var budget *cluster.Budget
	if *retryRatio > 0 {
		budget = &cluster.Budget{Ratio: *retryRatio, Burst: *retryBurst}
	}
	router := &cluster.Router{
		Backends:    fleet,
		Policy:      policy,
		Limiter:     limiter,
		MaxAttempts: *maxAttempts,
		Retry:       budget,
		HedgeAfter:  *hedgeAfter,
	}

	var tracer *obs.Tracer
	if *traceSpans > 0 {
		tracer = obs.NewTracer(*traceSpans)
	}
	mux := http.NewServeMux()
	mux.Handle("/", httpx.Wrap(router.Handler(), tracer))
	obs.Mount(mux, tracer, *pprofOn)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *probeInterval > 0 {
		probeClient := &http.Client{Timeout: httpx.ProxyDialTimeout}
		go router.ProbeLoop(ctx, *probeInterval, func(ctx context.Context, b *cluster.Backend) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.Name+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := probeClient.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("healthz %s", resp.Status)
			}
			return nil
		})
	}

	log.Printf("routing %d backends with %s policy at http://%s/v1/quote (metrics at /metrics)",
		len(fleet), policy.Name(), *addr)
	srv := httpx.NewServer(*addr, mux)
	if err := httpx.ListenAndServe(ctx, srv, httpx.DefaultGrace); err != nil {
		log.Fatal(err)
	}
}

// parseBackends builds proxied backends from comma-separated base URLs;
// each backend is named by its base URL, which doubles as the probe
// target.
func parseBackends(list string, threshold int, cooldown time.Duration) ([]*cluster.Backend, error) {
	var out []*cluster.Backend
	seen := map[string]bool{}
	for _, raw := range strings.Split(list, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("bad backend URL %q (want e.g. http://host:8081)", raw)
		}
		name := strings.TrimSuffix(u.String(), "/")
		if seen[name] {
			return nil, fmt.Errorf("duplicate backend %q", name)
		}
		seen[name] = true
		b := cluster.NewBackend(name, httpx.Proxy(u, nil))
		b.Breaker = &cluster.Breaker{Threshold: threshold, Cooldown: cooldown}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends in %q", list)
	}
	return out, nil
}

// parseQuota parses tenant=rate:burst (burst optional, defaults to
// rate).
func parseQuota(s string) (string, cluster.Quota, error) {
	tenant, spec, ok := strings.Cut(s, "=")
	if !ok || tenant == "" {
		return "", cluster.Quota{}, fmt.Errorf("bad -quota %q (want tenant=rate:burst)", s)
	}
	rateStr, burstStr, hasBurst := strings.Cut(spec, ":")
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate <= 0 {
		return "", cluster.Quota{}, fmt.Errorf("bad -quota rate in %q", s)
	}
	burst := rate
	if hasBurst {
		if burst, err = strconv.ParseFloat(burstStr, 64); err != nil || burst < 1 {
			return "", cluster.Quota{}, fmt.Errorf("bad -quota burst in %q", s)
		}
	}
	return tenant, cluster.Quota{Rate: rate, Burst: burst}, nil
}
