package httpx

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"
)

// ProxyDialTimeout bounds how long the proxy transport waits for a
// backend connection; a dead backend must fail fast so the router can
// fail over instead of pinning a client for the OS connect timeout.
const ProxyDialTimeout = 2 * time.Second

// Proxy returns a reverse proxy to target, sharing the repository's
// serving policy: a bounded connect timeout so dead backends fail fast,
// and transport errors surfaced as a 502 JSON error envelope (matching
// the quote service's error shape) instead of the default bare text.
// onError, when non-nil, observes every transport-level failure — the
// cluster router uses it to count backend faults without parsing
// response bodies.
func Proxy(target *url.URL, onError func(error)) http.Handler {
	p := httputil.NewSingleHostReverseProxy(target)
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.DialContext = (&net.Dialer{Timeout: ProxyDialTimeout}).DialContext
	p.Transport = transport
	// Streaming passthrough: quote plans are pushed over long-lived SSE
	// responses, where a buffered frame is a stale plan on the client.
	// A negative FlushInterval forwards every upstream write immediately
	// instead of coalescing on a timer; one-shot JSON responses are a
	// single write, so they pay nothing for it.
	p.FlushInterval = -1
	p.BufferPool = copyBuffers
	p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		if onError != nil {
			onError(err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		json.NewEncoder(w).Encode(struct {
			Error string `json:"error"`
		}{Error: "upstream unreachable: " + err.Error()})
	}
	return p
}

// copyBufferSize is the size of the buffers httputil.ReverseProxy copies
// response bodies through (its own default).
const copyBufferSize = 32 << 10

// copyBuffers is the copy-buffer pool every Proxy shares, one-shot and
// SSE responses alike.
var copyBuffers = &bufferPool{}

// bufferPool recycles the reverse proxy's response copy buffers. With
// no BufferPool, httputil.ReverseProxy allocates a fresh 32 KiB buffer
// per proxied response.
type bufferPool struct{ pool sync.Pool }

// Get returns a copy buffer, reusing a released one when available.
func (bp *bufferPool) Get() []byte {
	if b, ok := bp.pool.Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, copyBufferSize)
}

// Put releases a copy buffer for reuse.
func (bp *bufferPool) Put(b []byte) {
	bp.pool.Put(&b)
}
