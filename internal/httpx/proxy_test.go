package httpx

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestProxyForwards round-trips a request through the proxy and checks
// method, path, body and headers arrive intact.
func TestProxyForwards(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Method != http.MethodPost || r.URL.Path != "/v1/quote" || string(body) != `{"x":1}` {
			t.Errorf("backend saw %s %s body %q", r.Method, r.URL.Path, body)
		}
		if got := r.Header.Get("X-Tenant"); got != "acme" {
			t.Errorf("X-Tenant header = %q, want acme", got)
		}
		w.Header().Set("X-Backend", "b0")
		w.Write([]byte("ok"))
	}))
	defer backend.Close()
	u, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := Proxy(u, nil)

	req := httptest.NewRequest(http.MethodPost, "/v1/quote", strings.NewReader(`{"x":1}`))
	req.Header.Set("X-Tenant", "acme")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Fatalf("proxied response %d %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Backend"); got != "b0" {
		t.Fatalf("response header X-Backend = %q, want b0", got)
	}
}

// TestProxyStreamsIncrementally pins the streaming passthrough: a
// frame the backend writes and flushes mid-response must reach the
// client while the backend is still holding the connection open — the
// proxy may not buffer the stream.
func TestProxyStreamsIncrementally(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("X-Plan-Generation", "7")
		io.WriteString(w, "event: plan\ndata: {\"generation\":7}\n\n")
		w.(http.Flusher).Flush()
		<-release
		io.WriteString(w, "event: plan\ndata: {\"generation\":8}\n\n")
	}))
	defer backend.Close()
	defer close(release)
	u, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(Proxy(u, nil))
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/quotes/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Plan-Generation"); got != "7" {
		t.Fatalf("X-Plan-Generation = %q, want 7", got)
	}
	type chunk struct {
		data string
		err  error
	}
	reads := make(chan chunk)
	go func() {
		buf := make([]byte, 512)
		for {
			n, err := resp.Body.Read(buf)
			reads <- chunk{data: string(buf[:n]), err: err}
			if err != nil {
				return
			}
		}
	}()
	// The first frame must arrive while the backend is blocked on
	// release — i.e. before the response is complete.
	var first strings.Builder
	deadline := time.After(10 * time.Second)
	for !strings.Contains(first.String(), `{"generation":7}`) {
		select {
		case c := <-reads:
			if c.err != nil {
				t.Fatalf("stream ended early with %q (%v)", first.String()+c.data, c.err)
			}
			first.WriteString(c.data)
		case <-deadline:
			t.Fatal("first frame never flushed through the proxy")
		}
	}
	release <- struct{}{}
	var rest strings.Builder
	for c := range reads {
		rest.WriteString(c.data)
		if c.err != nil {
			break
		}
	}
	if !strings.Contains(rest.String(), `{"generation":8}`) {
		t.Fatalf("second frame missing: %q", rest.String())
	}
}

// TestProxyDeadBackend checks a connection failure maps to a 502 JSON
// envelope and fires the error callback, so a router can count the
// fault and fail over.
func TestProxyDeadBackend(t *testing.T) {
	// A listener that is immediately closed yields a port that refuses
	// connections.
	dead := httptest.NewServer(http.NotFoundHandler())
	u, err := url.Parse(dead.URL)
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()

	var seen int
	p := Proxy(u, func(error) { seen++ })
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("dead backend returned %d, want 502", rec.Code)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("bad 502 envelope %q (%v)", rec.Body.String(), err)
	}
	if seen != 1 {
		t.Fatalf("error callback fired %d times, want 1", seen)
	}
}

// TestProxyPoolsCopyBuffers pins the shared copy-buffer pool: every
// proxy copies through it, and bodies larger than one buffer arrive
// intact across repeated responses that reuse released buffers.
func TestProxyPoolsCopyBuffers(t *testing.T) {
	body := strings.Repeat("0123456789abcdef", 6<<10) // 96 KiB: three buffers' worth
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer backend.Close()
	u, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := Proxy(u, nil)
	if rp, ok := p.(*httputil.ReverseProxy); !ok || rp.BufferPool != copyBuffers {
		t.Fatalf("proxy %T does not copy through the shared buffer pool", p)
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/big", nil))
		if rec.Code != http.StatusOK || rec.Body.String() != body {
			t.Fatalf("response %d: status %d, %d of %d body bytes intact", i, rec.Code, rec.Body.Len(), len(body))
		}
	}
	if b := copyBuffers.Get(); len(b) != copyBufferSize {
		t.Fatalf("pooled buffer of %d bytes, want %d", len(b), copyBufferSize)
	} else {
		copyBuffers.Put(b)
	}
}
