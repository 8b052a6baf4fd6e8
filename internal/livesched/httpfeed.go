package livesched

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/spotapi"
	"repro/internal/trace"
)

// HTTPFeed polls a spotapi endpoint (AWS DescribeSpotPriceHistory
// document format, e.g. cmd/pricefeedd) and exposes the history as a
// live sample stream: each Next call returns the following 5-minute
// row, re-fetching when the consumer catches up with the server. It is
// the production form of the scheduler's input path, and quoted's.
//
// Rows are tracked by wall-clock time, so an upstream whose window
// slides between fetches (as DescribeSpotPriceHistory's does) still
// yields row k as the sample at Start() + k steps; samples that slid
// out unread repeat the last row delivered (the price held). A silent
// upstream is waited on indefinitely: consumers bound silence
// themselves (Config.WatchdogGap, quote.Streamer.StaleAfter).
//
// The AWS format carries change events, so a stretch of constant prices
// at the head of the server's window is only observable once the next
// movement is published — the feed's visible horizon trails the true
// market by up to one price-hold period, exactly as it does against the
// real DescribeSpotPriceHistory API.
type HTTPFeed struct {
	// Client fetches the history.
	Client *spotapi.Client
	// PollInterval paces re-fetches when no new data is available
	// (default: one second of wall-clock per poll; a real deployment
	// would use a large fraction of the 5-minute step).
	PollInterval time.Duration

	set                *trace.Set
	epoch, start, next time.Time // wall clock of set's first sample, the first row and the next
	last               []float64
}

// Zones implements Feed. It is nil until the first fetch — call Prime
// first when zone names are needed up front.
func (f *HTTPFeed) Zones() []string {
	if f.set == nil {
		return nil
	}
	return f.set.Zones()
}

// Step implements Feed.
func (f *HTTPFeed) Step() int64 {
	if f.set == nil {
		return trace.DefaultStep
	}
	return f.set.Step()
}

// Start returns the wall-clock time of the feed's first row (the zero
// time before Prime).
func (f *HTTPFeed) Start() time.Time { return f.start }

// Prime performs the initial fetch so Zones, Step and Start are known
// before the consumer starts.
func (f *HTTPFeed) Prime(ctx context.Context) error {
	if f.set != nil {
		return nil
	}
	set, epoch, err := f.Client.Fetch(ctx, time.Time{}, time.Time{}, trace.DefaultStep)
	if err != nil {
		return fmt.Errorf("livesched: priming http feed: %w", err)
	}
	f.set, f.epoch, f.start, f.next = set, epoch, epoch, epoch
	return nil
}

// Next implements Feed.
func (f *HTTPFeed) Next(ctx context.Context) ([]float64, error) {
	poll := f.PollInterval
	if poll <= 0 {
		poll = time.Second
	}
	if err := f.Prime(ctx); err != nil {
		return nil, err
	}
	for {
		if row := f.row(); row != nil {
			return row, nil
		}
		// Caught up: re-fetch and see whether the server has more.
		set, epoch, err := f.Client.Fetch(ctx, time.Time{}, time.Time{}, f.set.Step())
		if err != nil {
			return nil, err
		}
		if !slices.Equal(set.Zones(), f.set.Zones()) {
			return nil, fmt.Errorf("livesched: upstream zones changed from %v to %v", f.set.Zones(), set.Zones())
		}
		if epoch.Add(time.Duration(set.Duration()) * time.Second).After(f.next) {
			f.set, f.epoch = set, epoch
			continue
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// row returns the sample at f.next and advances past it, or nil when
// the fetched set ends before it.
func (f *HTTPFeed) row() []float64 {
	i := int64(f.next.Sub(f.epoch) / time.Second / time.Duration(f.set.Step()))
	if i >= int64(f.set.Series[0].Len()) {
		return nil
	}
	row := make([]float64, f.set.NumZones())
	if i < 0 {
		copy(row, f.last) // slid out of the upstream window unread
	} else {
		for z, s := range f.set.Series {
			row[z] = s.Prices[i]
		}
	}
	f.last = row
	f.next = f.next.Add(time.Duration(f.set.Step()) * time.Second)
	return row
}
