package livesched

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spotapi"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// growingServer serves an AWS-format history that grows over time,
// emulating a live market.
type growingServer struct {
	mu      sync.Mutex
	full    *trace.Set
	visible int64 // seconds of the trace currently exposed
	epoch   time.Time
}

func (g *growingServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		window := g.full.Slice(g.full.Start(), g.full.Start()+g.visible)
		g.mu.Unlock()
		_ = spotapi.Write(w, window, g.epoch)
	})
}

func (g *growingServer) grow(by int64) {
	g.mu.Lock()
	g.visible += by
	if g.visible > g.full.Duration() {
		g.visible = g.full.Duration()
	}
	g.mu.Unlock()
}

func TestHTTPFeedStreamsGrowingHistory(t *testing.T) {
	// A volatile trace so change events track the sample grid closely
	// (the AWS format only reveals history up to the last movement).
	full := tracegen.HighVolatility(3).Slice(0, 4*trace.Hour)
	g := &growingServer{full: full, visible: trace.Hour, epoch: time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)}
	srv := httptest.NewServer(g.handler())
	defer srv.Close()

	feed := &HTTPFeed{
		Client:       &spotapi.Client{BaseURL: srv.URL, HTTPClient: srv.Client()},
		PollInterval: time.Millisecond,
	}
	if err := feed.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(feed.Zones()); got != 3 {
		t.Fatalf("zones = %d", got)
	}
	if feed.Step() != trace.DefaultStep {
		t.Fatalf("step = %d", feed.Step())
	}

	// Consume most of the first visible hour (change events may trail
	// the final samples of the window).
	rows := 0
	for ; rows < 8; rows++ {
		if _, err := feed.Next(context.Background()); err != nil {
			t.Fatalf("row %d: %v", rows, err)
		}
	}
	// Grow the server in the background while the consumer catches up.
	go func() {
		time.Sleep(5 * time.Millisecond)
		g.grow(trace.Hour)
	}()
	row, err := feed.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The next sample matches the source trace exactly.
	want := full.Series[0].Prices[rows]
	if row[0] != want {
		t.Fatalf("row[%d] = %g, want %g", rows, row[0], want)
	}

	// Once the server stops growing the feed waits for it; the
	// consumer's own deadline bounds the silence.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	for {
		if _, err := feed.Next(ctx); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want the consumer's deadline", err)
			}
			break
		}
	}
}

func TestHTTPFeedErrorsSurface(t *testing.T) {
	feed := &HTTPFeed{Client: &spotapi.Client{BaseURL: "http://127.0.0.1:1"}}
	if _, err := feed.Next(context.Background()); err == nil {
		t.Fatal("unreachable server did not error")
	}
	if feed.Zones() != nil {
		t.Fatal("zones before priming should be nil")
	}
}

func TestHTTPFeedContextCancelDuringPoll(t *testing.T) {
	full := tracegen.LowVolatility(5).Slice(0, trace.Hour)
	g := &growingServer{full: full, visible: trace.Hour, epoch: time.Unix(0, 0).UTC()}
	srv := httptest.NewServer(g.handler())
	defer srv.Close()
	feed := &HTTPFeed{
		Client:       &spotapi.Client{BaseURL: srv.URL, HTTPClient: srv.Client()},
		PollInterval: time.Hour, // force the poll wait
	}
	// Drain everything available.
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := feed.Next(ctx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return // reached the poll wait and cancelled, as intended
			}
			t.Fatalf("err = %v", err)
		}
	}
}

// rampSet is a set whose every zone moves at every step, so the AWS
// change-event format reveals each window up to its last sample.
func rampSet(zones []string, n int) *trace.Set {
	series := make([]*trace.Series, len(zones))
	for z, name := range zones {
		prices := make([]float64, n)
		for i := range prices {
			prices[i] = float64(100000+1000*i+100*z) / 1e6 // survives the 6-digit wire format
		}
		series[z] = trace.NewSeries(name, 0, prices)
	}
	return trace.MustNewSet(series...)
}

// slidingServer serves a trailing window of full whose start and end
// move forward by fixed steps on every fetch, the way a trailing
// DescribeSpotPriceHistory window does.
type slidingServer struct {
	mu                 sync.Mutex
	full               *trace.Set
	epoch              time.Time
	lo, hi             int64 // current window, in steps
	startStep, endStep int64 // per-fetch advance of each bound
}

func (g *slidingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	step := g.full.Step()
	window := g.full.Slice(g.lo*step, g.hi*step)
	g.lo += g.startStep
	g.hi = min(g.hi+g.endStep, int64(g.full.Series[0].Len()))
	g.mu.Unlock()
	_ = spotapi.Write(w, window, g.epoch)
}

// TestHTTPFeedSlidingWindow pins row k of the feed to the upstream
// sample at Start()+k steps while the upstream window slides: every
// row the window still holds arrives once and in order, and rows that
// slid out before they were read repeat the last row delivered.
func TestHTTPFeedSlidingWindow(t *testing.T) {
	zones := []string{"a", "b", "c"}
	full := rampSet(zones, 120)
	epoch := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name               string
		startStep, endStep int64
		rows               int
		lost               map[int]bool // rows that slid out unread
	}{
		{name: "start 2 end 3", startStep: 2, endStep: 3, rows: 90},
		// Windows [0,12) [5,15) [10,18) [15,21) [20,24) [25,27): row 24
		// is gone before the feed asks for it.
		{name: "start 5 end 3", startStep: 5, endStep: 3, rows: 27, lost: map[int]bool{24: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(&slidingServer{full: full, epoch: epoch, hi: 12,
				startStep: tc.startStep, endStep: tc.endStep})
			defer srv.Close()
			feed := &HTTPFeed{Client: &spotapi.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}, PollInterval: time.Millisecond}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			wrong := 0
			for k := 0; k < tc.rows; k++ {
				row, err := feed.Next(ctx)
				if err != nil {
					t.Fatalf("row %d: %v", k, err)
				}
				src := k
				if tc.lost[k] {
					src = k - 1
				}
				for z := range zones {
					if row[z] != full.Series[z].Prices[src] {
						wrong++
					}
				}
			}
			if wrong != 0 {
				t.Fatalf("%d of %d cells differ from the upstream sample at their time", wrong, tc.rows*len(zones))
			}
			if !feed.Start().Equal(epoch) {
				t.Fatalf("Start = %v, want %v", feed.Start(), epoch)
			}
		})
	}
}

// TestHTTPFeedZoneChangeIsError refuses a refetch whose zone set
// differs from the primed one instead of misaligning its columns.
func TestHTTPFeedZoneChangeIsError(t *testing.T) {
	epoch := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	sets := []*trace.Set{rampSet([]string{"a", "b"}, 4), rampSet([]string{"a", "c"}, 8)}
	var mu sync.Mutex
	fetches := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		set := sets[min(fetches, 1)]
		fetches++
		mu.Unlock()
		_ = spotapi.Write(w, set, epoch)
	}))
	defer srv.Close()
	feed := &HTTPFeed{Client: &spotapi.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}, PollInterval: time.Millisecond}
	for k := 0; k < 4; k++ {
		if _, err := feed.Next(context.Background()); err != nil {
			t.Fatalf("row %d: %v", k, err)
		}
	}
	if _, err := feed.Next(context.Background()); err == nil || !strings.Contains(err.Error(), "zones changed") {
		t.Fatalf("refetch with other zones = %v, want a zones-changed error", err)
	}
}
