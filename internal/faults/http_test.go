package faults

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// okTransport answers every request with a 200.
type okTransport struct{ calls int }

func (t *okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.calls++
	rec := httptest.NewRecorder()
	rec.WriteString("ok")
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func TestRoundTripperInjectsError(t *testing.T) {
	inner := &okTransport{}
	rt := &RoundTripper{
		Next:     inner,
		Scenario: Scenario{Plans: []Plan{{At: 1, Kind: HTTPError, Duration: 2}}},
	}
	codes := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		req := httptest.NewRequest("GET", "http://example.test/", nil)
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		codes = append(codes, resp.StatusCode)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	want := []int{200, 503, 503, 200}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	if inner.calls != 2 {
		t.Fatalf("inner transport saw %d calls, want 2", inner.calls)
	}
}

func TestRoundTripperInjectsTimeout(t *testing.T) {
	var slept time.Duration
	rt := &RoundTripper{
		Next:     &okTransport{},
		Scenario: Scenario{Plans: []Plan{{At: 0, Kind: HTTPTimeout, Duration: 1, Delay: 250 * time.Millisecond}}},
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = d
			return nil
		},
	}
	req := httptest.NewRequest("GET", "http://example.test/", nil)
	_, err := rt.RoundTrip(req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline-exceeded wrapper", err)
	}
	if slept != 250*time.Millisecond {
		t.Fatalf("slept %v, want 250ms", slept)
	}
}

func TestHandlerInjectsError(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	var seen []Observation
	h := handler(inner, Scenario{Plans: []Plan{{At: 0, Kind: HTTPError, Duration: 1}}},
		func(o Observation) { seen = append(seen, o) })
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first request: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d, want 200", resp.StatusCode)
	}
	if len(seen) != 1 || seen[0].Kind != HTTPError {
		t.Fatalf("observations = %v", seen)
	}
}

func TestHandlerTimeoutHoldsUntilClientGivesUp(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	h := handler(inner, Scenario{Plans: []Plan{{At: 0, Kind: HTTPTimeout, Duration: 1, Delay: time.Hour}}}, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	client := &http.Client{Timeout: 50 * time.Millisecond}
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("held request should have timed out client-side")
	}
}

// handler wraps an http.Handler with server-side fault injection:
// HTTPError plans answer with a synthesized 5xx, HTTPTimeout plans hold
// the request for Delay before forwarding (the client's timeout is what
// turns the hold into a failure). Request numbering follows arrival
// order.
func handler(inner http.Handler, sc Scenario, onFault func(Observation)) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1) - 1
		if p := sc.active(HTTPTimeout, i); p != nil {
			if onFault != nil {
				onFault(Observation{Kind: HTTPTimeout, Index: i})
			}
			if err := Sleep(r.Context(), p.Delay); err != nil {
				return // client gave up mid-hold
			}
		}
		if p := sc.active(HTTPError, i); p != nil {
			if onFault != nil {
				onFault(Observation{Kind: HTTPError, Index: i})
			}
			http.Error(w, "faults: injected error", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
}
