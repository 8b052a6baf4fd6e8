package quote

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/tracegen"
)

// TestConcurrentClients is the load acceptance bar run under the race
// detector: 200 concurrent clients fire a small mix of requests at a
// live HTTP server; every response must be 200 OK, and all responses
// for the same payload must be byte-identical regardless of whether
// they were computed, coalesced or cached.
func TestConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	svc := &Service{Source: &StaticSource{Set: tracegen.HighVolatility(7)}}
	ts := httptest.NewServer(NewStreamingHandler(svc, nil))
	defer ts.Close()
	// Allow all clients to hold connections concurrently.
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 256
	ts.Client().Transport.(*http.Transport).MaxConnsPerHost = 0

	payloads := []string{
		`{"work_hours":3,"deadline_hours":6,"history_window":3,"max_zones":2}`,
		`{"work_hours":4,"deadline_hours":8,"history_window":3,"max_zones":2}`,
		`{"work_hours":5,"deadline_hours":9,"history_window":3,"max_zones":2}`,
		`{"work_hours":6,"deadline_hours":12,"history_window":3,"max_zones":2}`,
	}
	const (
		clients   = 200
		perClient = 3
	)
	bodies := make([][][]byte, clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				payload := payloads[(c+i)%len(payloads)]
				resp, err := ts.Client().Post(ts.URL+"/v1/quote", "application/json", bytes.NewReader([]byte(payload)))
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- &clientError{status: resp.Status, body: string(body)}
					return
				}
				bodies[c] = append(bodies[c], append([]byte("p"+payload[:20]+"|"), body...))
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Group by payload prefix and assert byte-identity within groups.
	byPayload := map[string][]byte{}
	for _, client := range bodies {
		for _, tagged := range client {
			sep := bytes.IndexByte(tagged, '|')
			key, body := string(tagged[:sep]), tagged[sep+1:]
			if prev, ok := byPayload[key]; ok {
				if !bytes.Equal(prev, body) {
					t.Fatalf("payload %q produced divergent bodies under concurrency", key)
				}
			} else {
				byPayload[key] = body
			}
		}
	}
	if len(byPayload) != len(payloads) {
		t.Fatalf("saw %d distinct payload groups, want %d", len(byPayload), len(payloads))
	}

	m := svc.Stats()
	total := int64(clients * perClient)
	if got := m.Requests.Load(); got != total {
		t.Fatalf("requests counter = %d, want %d", got, total)
	}
	if m.CacheMisses.Load()+m.CacheHits.Load() != total {
		t.Fatalf("cache lookups %d+%d do not cover %d requests",
			m.CacheHits.Load(), m.CacheMisses.Load(), total)
	}
	if m.EvalErrors.Load() != 0 || m.HistoryErrors.Load() != 0 || m.ValidationErrors.Load() != 0 {
		t.Fatalf("error counters non-zero: eval=%d history=%d validation=%d",
			m.EvalErrors.Load(), m.HistoryErrors.Load(), m.ValidationErrors.Load())
	}
	if m.InFlight.Load() != 0 {
		t.Fatalf("in-flight gauge = %d after drain", m.InFlight.Load())
	}
}

// clientError reports a non-200 response.
type clientError struct{ status, body string }

func (e *clientError) Error() string { return "quote request failed: " + e.status + ": " + e.body }
