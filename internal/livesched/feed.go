package livesched

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// TraceFeed replays a trace.Set as a live price feed, one sample row
// per Interval of wall-clock time (zero replays as fast as the consumer
// can step — useful for tests and offline validation).
type TraceFeed struct {
	Set *trace.Set
	// Interval is the wall-clock pacing per 5-minute sample; e.g.
	// 300 ms replays the market at 1000× speed. Row n is due n·Interval
	// after the first row was returned, so time the consumer spends
	// between calls does not accumulate as lag: an overdue row returns
	// at once, and no row returns before it is due.
	Interval time.Duration

	next int
	t0   time.Time // when the first row was returned
}

// Zones implements Feed.
func (f *TraceFeed) Zones() []string { return f.Set.Zones() }

// Step implements Feed.
func (f *TraceFeed) Step() int64 { return f.Set.Step() }

// Next implements Feed.
func (f *TraceFeed) Next(ctx context.Context) ([]float64, error) {
	if f.next >= f.Set.Series[0].Len() {
		return nil, io.EOF
	}
	if f.Interval > 0 {
		if f.next == 0 {
			f.t0 = time.Now()
		} else if wait := time.Until(f.t0.Add(time.Duration(f.next) * f.Interval)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
	row := make([]float64, f.Set.NumZones())
	for i, s := range f.Set.Series {
		row[i] = s.Prices[f.next]
	}
	f.next++
	return row, nil
}

// ChanFeed adapts a channel of sample rows into a Feed, for deployments
// that push updates (e.g. a websocket or polling goroutine).
type ChanFeed struct {
	ZoneNames []string
	StepSecs  int64
	Rows      <-chan []float64
}

// Zones implements Feed.
func (f *ChanFeed) Zones() []string { return f.ZoneNames }

// Step implements Feed.
func (f *ChanFeed) Step() int64 { return f.StepSecs }

// Next implements Feed. Cancellation wins deterministically: a context
// that is already done is honoured before any available row, so a
// cancelled scheduler never keeps draining (or blocking on) a silent
// pusher.
func (f *ChanFeed) Next(ctx context.Context) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case row, ok := <-f.Rows:
		if !ok {
			return nil, io.EOF
		}
		if len(row) != len(f.ZoneNames) {
			return nil, fmt.Errorf("livesched: row has %d prices for %d zones", len(row), len(f.ZoneNames))
		}
		return row, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// LogActuator writes each action as one line to an io.Writer.
type LogActuator struct {
	W io.Writer
}

// Act implements Actuator.
func (l LogActuator) Act(_ context.Context, a Action) error {
	zone := a.Zone
	if zone == "" {
		zone = "-"
	}
	detail := ""
	if a.Detail != "" {
		detail = "  " + a.Detail
	}
	_, err := fmt.Fprintf(l.W, "[%6.2fh] %-18s %-12s bid=$%.2f%s\n",
		float64(a.Time)/3600, a.Kind, zone, a.Bid, detail)
	return err
}

// Recorder collects actions for inspection in tests.
type Recorder struct {
	Actions []Action
}

// Act implements Actuator.
func (r *Recorder) Act(_ context.Context, a Action) error {
	r.Actions = append(r.Actions, a)
	return nil
}

// Count returns how many recorded actions have the given kind.
func (r *Recorder) Count(kind ActionKind) int {
	n := 0
	for _, a := range r.Actions {
		if a.Kind == kind {
			n++
		}
	}
	return n
}
