package livesched

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// ParseRow parses one textual price-feed line into a sample row of
// exactly zones prices. Prices are decimal numbers separated by commas
// and/or whitespace; blank lines and lines starting with '#' yield
// (nil, nil) so callers can skip them. Parsing applies the same
// sanitation as the scheduler's row validation: a price that is
// non-finite, negative or syntactically malformed — or a line with the
// wrong arity — is rejected, so one corrupted upstream line cannot
// poison the growing trace.
func ParseRow(line string, zones int) ([]float64, error) {
	if zones <= 0 {
		return nil, fmt.Errorf("livesched: non-positive zone count %d", zones)
	}
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.FieldsFunc(line, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\r'
	})
	if len(fields) == 0 {
		return nil, nil // blank or comment-only line
	}
	if len(fields) != zones {
		return nil, fmt.Errorf("livesched: row has %d prices for %d zones", len(fields), zones)
	}
	row := make([]float64, zones)
	for i, f := range fields {
		p, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("livesched: bad price %q: %v", f, err)
		}
		if !trace.ValidPrice(p) {
			return nil, fmt.Errorf("livesched: price %q out of range", f)
		}
		row[i] = p
	}
	return row, nil
}

// LineFeed reads price rows from a line-oriented stream (one ParseRow
// line per sample), the format ad-hoc fixtures and trace dumps use.
// Malformed lines are skipped and counted — the slot goes unsampled,
// matching the scheduler's own row validation — so one corrupted line
// cannot end the feed.
type LineFeed struct {
	// ZoneNames are the feed's zones, fixed for its lifetime.
	ZoneNames []string
	// StepSecs is the sampling interval in seconds.
	StepSecs int64
	// R is the underlying stream.
	R io.Reader
	// Malformed counts lines ParseRow rejected.
	Malformed int

	sc *bufio.Scanner
}

// Zones implements Feed.
func (f *LineFeed) Zones() []string { return f.ZoneNames }

// Step implements Feed.
func (f *LineFeed) Step() int64 { return f.StepSecs }

// Next implements Feed, returning the next parseable row. Blank and
// comment lines are skipped silently, malformed lines are skipped and
// counted. It returns io.EOF once the stream ends.
func (f *LineFeed) Next(ctx context.Context) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.sc == nil {
		f.sc = bufio.NewScanner(f.R)
	}
	for f.sc.Scan() {
		row, err := ParseRow(f.sc.Text(), len(f.ZoneNames))
		if err != nil {
			f.Malformed++
			continue
		}
		if row == nil {
			continue
		}
		return row, nil
	}
	if err := f.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}
