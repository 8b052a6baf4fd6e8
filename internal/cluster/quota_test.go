package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// quotaRouter is a one-backend router whose limiter never refills: the
// configured tenants "acme" and "beta" and the shared default bucket
// each admit exactly one request.
func quotaRouter() (*Router, *Limiter) {
	frozen := time.Unix(1_700_000_000, 0)
	l := &Limiter{
		Default: Quota{Rate: 1, Burst: 1},
		Tenants: map[string]Quota{"acme": {Rate: 1, Burst: 1}, "beta": {Rate: 1, Burst: 1}},
		Now:     func() time.Time { return frozen },
	}
	return &Router{Backends: []*Backend{NewBackend("b0", echoBackend("b0"))}, Limiter: l}, l
}

// quotaRequests are the two admission-checked routes, one request each.
var quotaRequests = map[string]func() *http.Request{
	"quote": func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/quote", strings.NewReader(validBody))
	},
	"stream": func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/v1/quotes/stream?work_hours=4&deadline_hours=12", nil)
	},
}

// quotaRejection sends two requests as tenant and returns the second's
// 429 error message, failing unless the first was admitted and the
// second refused.
func quotaRejection(t *testing.T, h http.Handler, newReq func() *http.Request, tenant string) string {
	t.Helper()
	var rec *httptest.ResponseRecorder
	for i := 0; i < 2; i++ {
		req := newReq()
		req.Header.Set("X-Tenant", tenant)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if i == 0 && rec.Code == http.StatusTooManyRequests {
			t.Fatalf("tenant %q: first request refused", tenant)
		}
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant %q: second request returned %d, want 429", tenant, rec.Code)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("tenant %q: 429 body %q is not the JSON error envelope: %v", tenant, rec.Body.String(), err)
	}
	return env.Error
}

// TestRouterQuotaNamesChargedBucket pins 429 attribution on both
// routes: a configured tenant's rejection names the tenant, and an
// unconfigured or missing X-Tenant — charged to the shared bucket —
// names "default", not a bucket that does not exist.
func TestRouterQuotaNamesChargedBucket(t *testing.T) {
	for route, newReq := range quotaRequests {
		for tenant, bucket := range map[string]string{"acme": "acme", "mallory": "default", "": "default"} {
			r, _ := quotaRouter()
			got := quotaRejection(t, r.Handler(), newReq, tenant)
			if want := fmt.Sprintf("quota exhausted for tenant %q", bucket); got != want {
				t.Errorf("%s, tenant %q: 429 says %q, want %q", route, tenant, got, want)
			}
		}
	}
}

// FuzzTenantHeader feeds arbitrary X-Tenant values through both
// admission-checked routes. Whatever the header, the limiter never
// grows a bucket for it, nothing panics, and the 429 is the JSON error
// envelope naming the bucket charged: the tenant when configured,
// otherwise "default".
func FuzzTenantHeader(f *testing.F) {
	for _, seed := range []string{"", "acme", "beta", "default", "ACME", "acme ", "\x00", "tenant\"quoted", "ünïcode", strings.Repeat("x", 4096)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tenant string) {
		for _, newReq := range quotaRequests {
			r, l := quotaRouter()
			got := quotaRejection(t, r.Handler(), newReq, tenant)
			bucket := "default"
			if _, ok := l.Tenants[tenant]; ok {
				bucket = tenant
			}
			if want := fmt.Sprintf("quota exhausted for tenant %q", bucket); got != want {
				t.Fatalf("tenant %q: 429 says %q, want %q", tenant, got, want)
			}
			if len(l.buckets) != len(l.Tenants) {
				t.Fatalf("tenant %q grew the limiter to %d buckets", tenant, len(l.buckets))
			}
		}
	})
}
