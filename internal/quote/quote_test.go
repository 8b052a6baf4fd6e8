package quote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// testService builds a service over a synthetic month of history.
func testService() *Service {
	return &Service{Source: &StaticSource{Set: tracegen.HighVolatility(7)}}
}

// testRequest is a small, fast request: a 3-hour replay window and a
// 2-zone permutation grid.
func testRequest() Request {
	return Request{WorkHours: 4, DeadlineHours: 8, HistoryWindowHours: 3, MaxZones: 2}
}

// TestDecodeRequest covers the decoder's rejection paths.
func TestDecodeRequest(t *testing.T) {
	if _, err := DecodeRequest(strings.NewReader(`{"work_hours":4,"deadline_hours":8,"history_window":3}`)); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []struct{ name, body string }{
		{"malformed", `{"work_hours":`},
		{"unknown field", `{"work_hours":4,"deadline_hours":8,"history_window":3,"bogus":1}`},
		{"trailing garbage", `{"work_hours":4,"deadline_hours":8,"history_window":3}{"again":true}`},
		{"wrong type", `{"work_hours":"four"}`},
		{"not an object", `[1,2,3]`},
	}
	for _, tc := range bad {
		_, err := DecodeRequest(strings.NewReader(tc.body))
		if err == nil {
			t.Errorf("%s: decoder accepted %q", tc.name, tc.body)
		} else if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: error %v is not ErrInvalidRequest", tc.name, err)
		}
	}
}

// TestRequestValidation covers the satellite's required rejections and
// the limit checks.
func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Request)
	}{
		{"negative work", func(r *Request) { r.WorkHours = -1 }},
		{"zero work", func(r *Request) { r.WorkHours = 0 }},
		{"deadline below work", func(r *Request) { r.DeadlineHours = r.WorkHours - 1 }},
		{"empty window", func(r *Request) { r.HistoryWindowHours = 0 }},
		{"negative window", func(r *Request) { r.HistoryWindowHours = -5 }},
		{"work above limit", func(r *Request) { r.WorkHours = MaxWorkHours + 1; r.DeadlineHours = 2 * (MaxWorkHours + 1) }},
		{"window above limit", func(r *Request) { r.HistoryWindowHours = MaxHistoryWindowHours + 1 }},
		{"negative price", func(r *Request) { r.OnDemandPrice = -1 }},
		{"too many zones", func(r *Request) { r.MaxZones = MaxZonesLimit + 1 }},
		{"negative top", func(r *Request) { r.Top = -1 }},
	}
	for _, tc := range cases {
		req := testRequest()
		tc.mut(&req)
		req.Normalize()
		if err := req.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the request", tc.name)
		} else if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: error %v is not ErrInvalidRequest", tc.name, err)
		}
	}
	svc := testService()
	req := testRequest()
	req.WorkHours = -1
	if _, _, err := svc.Quote(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Quote returned %v for an invalid request, want ErrInvalidRequest", err)
	}
	if got := svc.Stats().ValidationErrors.Load(); got != 1 {
		t.Fatalf("validation errors counter = %d, want 1", got)
	}
}

// TestQuoteCacheDeterminism is the tentpole's core contract: the same
// request twice returns byte-identical bodies, with the second served
// from cache.
func TestQuoteCacheDeterminism(t *testing.T) {
	svc := testService()
	ctx := context.Background()
	first, st1, err := svc.Quote(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st1 != StatusMiss {
		t.Fatalf("first quote status %q, want %q", st1, StatusMiss)
	}
	second, st2, err := svc.Quote(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st2 != StatusHit {
		t.Fatalf("second quote status %q, want %q", st2, StatusHit)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("identical requests returned different bodies")
	}
	m := svc.Stats()
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}

	var resp Response
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("body is not a Response: %v", err)
	}
	if resp.Best.Bid <= 0 || resp.Best.PredictedCost < 0 {
		t.Fatalf("implausible best plan %+v", resp.Best)
	}
	if len(resp.Alternatives) != DefaultTop-1 {
		t.Fatalf("got %d alternatives, want %d", len(resp.Alternatives), DefaultTop-1)
	}
	if resp.Evaluated == 0 || resp.History.Samples == 0 || resp.History.Digest == "" {
		t.Fatalf("missing evaluation metadata: %+v", resp)
	}

	// A different request must not alias the cached entry.
	other := testRequest()
	other.WorkHours = 5
	third, st3, err := svc.Quote(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if st3 != StatusMiss {
		t.Fatalf("distinct request status %q, want %q", st3, StatusMiss)
	}
	if bytes.Equal(first, third) {
		t.Fatal("distinct requests returned identical bodies")
	}
}

// TestHandlerEndToEnd drives the HTTP surface: a quote round-trip with
// cache headers, the error envelope, /healthz and /metrics.
func TestHandlerEndToEnd(t *testing.T) {
	svc := testService()
	ts := httptest.NewServer(NewStreamingHandler(svc, nil))
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	reqBody := `{"work_hours":4,"deadline_hours":8,"history_window":3,"max_zones":2}`
	resp1, body1 := post(reqBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("quote returned %s: %s", resp1.Status, body1)
	}
	if got := resp1.Header.Get("X-Quote-Cache"); got != string(StatusMiss) {
		t.Fatalf("first X-Quote-Cache = %q, want %q", got, StatusMiss)
	}
	resp2, body2 := post(reqBody)
	if got := resp2.Header.Get("X-Quote-Cache"); got != string(StatusHit) {
		t.Fatalf("second X-Quote-Cache = %q, want %q", got, StatusHit)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("HTTP bodies differ between miss and hit")
	}

	respBad, bodyBad := post(`{"work_hours":-1}`)
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request returned %s", respBad.Status)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(bodyBad, &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("bad error envelope %q (%v)", bodyBad, err)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hz, err)
	}
	hz.Body.Close()

	mx, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mx.Body)
	mx.Body.Close()
	// Three requests reached the service: miss, hit, and the invalid
	// one (rejected after being counted).
	for _, want := range []string{
		"quoted_requests_total 3",
		"quoted_cache_hits_total 1",
		"quoted_cache_misses_total 1",
		`quoted_latency_seconds{stage="total",quantile="0.99"}`,
		`quoted_latency_seconds_count{stage="eval"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
}

// TestHistoryErrorMapsToBadGateway covers the feed-failure path.
func TestHistoryErrorMapsToBadGateway(t *testing.T) {
	svc := &Service{Source: failingSource{}}
	ts := httptest.NewServer(NewStreamingHandler(svc, nil))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/quote", "application/json",
		strings.NewReader(`{"work_hours":4,"deadline_hours":8,"history_window":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("history failure returned %s, want 502", resp.Status)
	}
	if svc.Stats().HistoryErrors.Load() != 1 {
		t.Fatalf("history errors counter = %d, want 1", svc.Stats().HistoryErrors.Load())
	}
}

// failingSource always errors, standing in for an unreachable feed.
type failingSource struct{}

func (failingSource) History(context.Context, int64) (*trace.Set, string, error) {
	return nil, "", errors.New("feed down")
}

// TestCanonicalKeyPinned pins the canonical request key, the composed
// plan-cache key and the FNV-64a affinity digest byte-for-byte. The
// cluster router hashes AffinityKey to pick a backend and the backend
// caches under CacheKey; this test is the contract that keeps the two
// derived from the same canonical string, so affinity routing and
// cache identity can never drift apart silently.
func TestCanonicalKeyPinned(t *testing.T) {
	req := testRequest()
	req.Normalize()
	const wantKey = "w=4|d=8|od=2.4|h=3|z=2|t=5"
	if got := req.Key(); got != wantKey {
		t.Fatalf("Key() = %q, want %q", got, wantKey)
	}
	const digest = "00112233445566aa"
	if got, want := CacheKey(digest, req), digest+"|"+wantKey; got != want {
		t.Fatalf("CacheKey() = %q, want %q", got, want)
	}
	if got := req.AffinityKey(); got != 0x5d46f7abd76e4777 {
		t.Fatalf("AffinityKey() = %#016x, want 0x5d46f7abd76e4777", got)
	}
	// The affinity digest covers every response-shaping field: changing
	// any one of them must move the hash.
	muts := []func(*Request){
		func(r *Request) { r.WorkHours = 5 },
		func(r *Request) { r.DeadlineHours = 9 },
		func(r *Request) { r.OnDemandPrice = 1.1 },
		func(r *Request) { r.HistoryWindowHours = 4 },
		func(r *Request) { r.MaxZones = 3 },
		func(r *Request) { r.Top = 7 },
	}
	for i, mut := range muts {
		other := testRequest()
		other.Normalize()
		mut(&other)
		if other.AffinityKey() == req.AffinityKey() {
			t.Errorf("mutation %d did not change AffinityKey", i)
		}
	}
}

// TestLRUCacheEviction checks capacity bounds and recency order.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted prematurely")
	}
	c.add("c", []byte("C")) // evicts b (least recently used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestServicePlanCacheBound checks the plan cache's resident bound
// through the Service: CacheSize bodies at most, whatever the number of
// distinct request shapes, evicting the least recently used shape, and
// no flight outliving its evaluation.
func TestServicePlanCacheBound(t *testing.T) {
	svc := &Service{Source: &StaticSource{Set: tracegen.HighVolatility(7)}, CacheSize: 4}
	ctx := context.Background()
	shape := func(i int) Request {
		req := testRequest()
		req.WorkHours = 1 + float64(i)/2
		return req
	}
	const shapes = 10
	for i := 0; i < shapes; i++ {
		if _, st, err := svc.Quote(ctx, shape(i)); err != nil || st != StatusMiss {
			t.Fatalf("shape %d = %q, %v; want a miss", i, st, err)
		}
	}
	if n := svc.cache.len(); n != 4 {
		t.Fatalf("resident plans = %d after %d shapes, want CacheSize 4", n, shapes)
	}
	if _, st, err := svc.Quote(ctx, shape(shapes-1)); err != nil || st != StatusHit {
		t.Fatalf("repeat of the last shape = %q, %v; want a hit", st, err)
	}
	if _, st, err := svc.Quote(ctx, shape(0)); err != nil || st != StatusMiss {
		t.Fatalf("repeat of the first shape = %q, %v; want a miss", st, err)
	}
	if n := svc.cache.len(); n != 4 {
		t.Fatalf("resident plans = %d, want CacheSize 4", n)
	}
	if n := len(svc.flights.m); n != 0 {
		t.Fatalf("%d flights outlived their evaluations", n)
	}
}
