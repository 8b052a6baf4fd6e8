package httpx

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestReadHeaderTimeoutEnforced opens a raw TCP connection, sends a
// partial request line and never finishes the headers; a server built
// with a tiny ReadHeader timeout must hang up rather than hold the
// slowloris connection open.
func TestReadHeaderTimeoutEnforced(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith("", http.NotFoundHandler(), Timeouts{
		ReadHeader: 50 * time.Millisecond,
		Read:       time.Second,
		Idle:       time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, srv, ln, time.Second) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\nX-Slow:")); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection once the header deadline
	// passes; the read unblocks with EOF/reset well before our own
	// deadline if enforcement works.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 512)
	start := time.Now()
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("slow-header connection survived %v; ReadHeader timeout not enforced", elapsed)
	}
	cancel()
	<-done
}

// TestGracefulDrainOrdering starts a request that is still in flight
// when shutdown begins and asserts Serve returns only after the handler
// completed and the client received the full response.
func TestGracefulDrainOrdering(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var handlerDone atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		handlerDone.Store(true)
		fmt.Fprint(w, "drained")
	})
	srv := NewServer("", mux)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ctx, srv, ln, 5*time.Second) }()

	type result struct {
		body string
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			resCh <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		resCh <- result{body: string(body), err: err}
	}()

	<-entered
	cancel() // begin shutdown with the request still in flight
	select {
	case <-serveDone:
		t.Fatal("Serve returned while a request was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
		if !handlerDone.Load() {
			t.Fatal("Serve returned before the in-flight handler finished")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the handler was released")
	}
	res := <-resCh
	if res.err != nil || res.body != "drained" {
		t.Fatalf("in-flight client got (%q, %v), want full response", res.body, res.err)
	}
}

// TestWrapTracesRequests checks the middleware records one span per
// request with the method/path name, the final status attribute, and a
// context the handler can hang child spans off.
func TestWrapTracesRequests(t *testing.T) {
	tracer := obs.NewTracer(16)
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		child := obs.FromContext(r.Context()).Child("handler.work")
		child.End()
		w.WriteHeader(http.StatusTeapot)
	}), tracer)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/quote", nil))

	spans := tracer.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	child, root := spans[0], spans[1]
	if root.Name != "GET /v1/quote" {
		t.Fatalf("root span name = %q", root.Name)
	}
	if child.Parent != root.ID || child.Trace != root.Trace {
		t.Fatalf("handler child not parented to request span")
	}
	want := obs.Attr{Key: "status", Value: "418"}
	if len(root.Attrs) != 1 || root.Attrs[0] != want {
		t.Fatalf("root attrs = %v, want [%v]", root.Attrs, want)
	}
}

// TestWrapImplicitStatus checks a handler that writes a body without
// calling WriteHeader is recorded as 200.
func TestWrapImplicitStatus(t *testing.T) {
	tracer := obs.NewTracer(4)
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}), tracer)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	s := tracer.Spans()[0]
	if len(s.Attrs) != 1 || s.Attrs[0].Value != "200" {
		t.Fatalf("attrs = %v, want status 200", s.Attrs)
	}
}

// TestWrapConcurrent drives the middleware from many goroutines; under
// -race this certifies the tracer and statusWriter wiring, and the span
// total must balance.
func TestWrapConcurrent(t *testing.T) {
	tracer := obs.NewTracer(64)
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct{ N int }
		json.NewDecoder(r.Body).Decode(&body)
		w.WriteHeader(http.StatusOK)
	}), tracer)
	srv := httptest.NewServer(h)
	defer srv.Close()

	const workers, per = 8, 25
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				resp, err := http.Get(srv.URL + "/load")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if tracer.Total() != workers*per {
		t.Fatalf("recorded %d spans, want %d", tracer.Total(), workers*per)
	}
}

// TestWrapStreamsServerSentEvents checks an SSE handler behind the
// middleware still sees an http.Flusher and streams: the client reads
// each frame before the handler writes the next, and the request span
// records the status.
func TestWrapStreamsServerSentEvents(t *testing.T) {
	tracer := obs.NewTracer(4)
	next := make(chan struct{})
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "response writer cannot stream", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "data: %d\n\n", i)
			flusher.Flush()
			<-next // the client has read this frame
		}
	}), tracer)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/quotes/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := fmt.Sprintf("data: %d\n", i); line != want {
			t.Fatalf("frame %d = %q, want %q", i, line, want)
		}
		if _, err := rd.ReadString('\n'); err != nil {
			t.Fatalf("frame %d terminator: %v", i, err)
		}
		next <- struct{}{}
	}
	io.Copy(io.Discard, rd)

	spans := tracer.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	want := obs.Attr{Key: "status", Value: "200"}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != want {
		t.Fatalf("attrs = %v, want [%v]", spans[0].Attrs, want)
	}
}
