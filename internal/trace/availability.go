package trace

// Availability analysis reproduces the Figure 2 view of the paper: for a
// fixed bid, each zone is "up" while its spot price is at or below the
// bid and "down" otherwise, and the combined availability of a set of
// zones is the union of their up intervals.

// Interval is a half-open time span [Start, End) in absolute seconds.
type Interval struct {
	Start int64
	End   int64
}

// UpIntervals returns the maximal intervals during which the zone price
// is at or below bid, i.e. a spot request at that bid would be granted.
func (s *Series) UpIntervals(bid float64) []Interval {
	var out []Interval
	open := false
	var start int64
	for i, p := range s.Prices {
		t := s.Epoch + int64(i)*s.Step
		if p <= bid {
			if !open {
				open = true
				start = t
			}
		} else if open {
			open = false
			out = append(out, Interval{Start: start, End: t})
		}
	}
	if open {
		out = append(out, Interval{Start: start, End: s.End()})
	}
	return out
}

// UpFraction returns the fraction of the series duration during which
// the price is at or below bid.
func (s *Series) UpFraction(bid float64) float64 {
	if len(s.Prices) == 0 {
		return 0
	}
	up := 0
	for _, p := range s.Prices {
		if p <= bid {
			up++
		}
	}
	return float64(up) / float64(len(s.Prices))
}

// CombinedUpIntervals returns the maximal intervals during which at
// least one zone of the set is up at the given bid — the top bar of the
// paper's Figure 2.
func (t *Set) CombinedUpIntervals(bid float64) []Interval {
	if len(t.Series) == 0 {
		return nil
	}
	ref := t.Series[0]
	var out []Interval
	open := false
	var start int64
	for i := 0; i < ref.Len(); i++ {
		at := ref.Epoch + int64(i)*ref.Step
		up := false
		for _, s := range t.Series {
			if s.Prices[i] <= bid {
				up = true
				break
			}
		}
		if up {
			if !open {
				open = true
				start = at
			}
		} else if open {
			open = false
			out = append(out, Interval{Start: start, End: at})
		}
	}
	if open {
		out = append(out, Interval{Start: start, End: ref.End()})
	}
	return out
}

// CombinedUpFraction returns the fraction of time at least one zone is
// up at the given bid.
func (t *Set) CombinedUpFraction(bid float64) float64 {
	if len(t.Series) == 0 || t.Series[0].Len() == 0 {
		return 0
	}
	n := t.Series[0].Len()
	up := 0
	for i := 0; i < n; i++ {
		for _, s := range t.Series {
			if s.Prices[i] <= bid {
				up++
				break
			}
		}
	}
	return float64(up) / float64(n)
}
