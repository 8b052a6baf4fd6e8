package quote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/trace"
)

// CacheStatus says how a quote was served.
type CacheStatus string

// Cache statuses, surfaced in the X-Quote-Cache response header (never
// in the body, which stays byte-identical across hit and miss).
const (
	// StatusMiss: the quote was computed by this request.
	StatusMiss CacheStatus = "miss"
	// StatusHit: the quote was served from the plan cache.
	StatusHit CacheStatus = "hit"
	// StatusCoalesced: the quote joined an identical in-flight
	// computation.
	StatusCoalesced CacheStatus = "coalesced"
)

// Service computes ranked execution plans over a history source. Fields
// are read at first use and must not change afterwards; the zero value
// plus a Source is ready. A Service is safe for concurrent use.
type Service struct {
	// Source supplies the trailing price history.
	Source HistorySource
	// Eval is the evaluation core; nil selects core.NewEvaluator().
	Eval *core.Evaluator
	// Gate bounds concurrent evaluations; nil selects
	// pool.NewGate(0) (2×GOMAXPROCS). Evaluations beyond the bound
	// wait for a slot until their request's context ends.
	Gate *pool.Gate
	// CacheSize bounds the plan cache entries; 0 selects 1024.
	CacheSize int
	// Metrics receives counters and latencies; nil selects a private
	// instance (retrievable via Stats).
	Metrics *Metrics

	once    sync.Once
	cache   *lruCache
	flights flightGroup
}

// init lazily fills defaults; callers hold no lock, sync.Once
// serialises.
func (s *Service) init() {
	s.once.Do(func() {
		if s.Eval == nil {
			s.Eval = core.NewEvaluator()
		}
		if s.Gate == nil {
			s.Gate = pool.NewGate(0)
		}
		if s.CacheSize <= 0 {
			s.CacheSize = 1024
		}
		if s.Metrics == nil {
			s.Metrics = NewMetrics()
		}
		s.cache = newLRU(s.CacheSize)
	})
}

// Stats returns the service's metrics sink (allocating it on first
// use).
func (s *Service) Stats() *Metrics {
	s.init()
	return s.Metrics
}

// Quote answers one planning request: it normalizes and validates req,
// pulls the trailing history window from the source, and returns the
// encoded Response body together with how it was served. Identical
// requests over identical history return byte-identical bodies. A
// source failure is ErrHistory on every request it touches.
func (s *Service) Quote(ctx context.Context, req Request) ([]byte, CacheStatus, error) {
	s.init()
	start := time.Now()
	s.Metrics.Requests.Add(1)
	s.Metrics.InFlight.Add(1)
	defer s.Metrics.InFlight.Add(-1)

	req.Normalize()
	if err := req.Validate(); err != nil {
		s.Metrics.ValidationErrors.Add(1)
		return nil, "", err
	}

	span := obs.FromContext(ctx)
	window := seconds(req.HistoryWindowHours)
	histStart := time.Now()
	hsp := span.Child("quote.history")
	hist, digest, err := s.Source.History(ctx, window)
	hsp.End()
	s.Metrics.history.Observe(time.Since(histStart).Seconds())
	if err != nil {
		if errors.Is(err, ErrInvalidRequest) {
			// The source answered, but the window is too short to
			// price: the client's error, not a source failure.
			s.Metrics.ValidationErrors.Add(1)
			return nil, "", err
		}
		s.Metrics.HistoryErrors.Add(1)
		return nil, "", fmt.Errorf("%w: %v", ErrHistory, err)
	}

	key := CacheKey(digest, req)
	if body, ok := s.cache.get(key); ok {
		s.Metrics.CacheHits.Add(1)
		s.Metrics.total.Observe(time.Since(start).Seconds())
		return body, StatusHit, nil
	}
	s.Metrics.CacheMisses.Add(1)

	body, shared, err := s.flights.do(key, func() ([]byte, error) {
		if err := s.Gate.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.Gate.Release()
		evalStart := time.Now()
		esp := span.Child("quote.eval")
		resp, err := s.compute(req, hist, digest)
		esp.End()
		s.Metrics.eval.Observe(time.Since(evalStart).Seconds())
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		body = append(body, '\n')
		s.cache.add(key, body)
		return body, nil
	})
	if err != nil {
		s.Metrics.EvalErrors.Add(1)
		return nil, "", err
	}
	status := StatusMiss
	if shared {
		status = StatusCoalesced
		s.Metrics.Coalesced.Add(1)
	}
	s.Metrics.total.Observe(time.Since(start).Seconds())
	return body, status, nil
}

// compute ranks the permutations and assembles the response.
func (s *Service) compute(req Request, hist *trace.Set, digest string) (*Response, error) {
	plans, err := s.Eval.Rank(core.PlanRequest{
		History:        hist,
		Work:           seconds(req.WorkHours),
		Deadline:       seconds(req.DeadlineHours),
		CheckpointCost: core.DefaultCheckpointCost,
		RestartCost:    core.DefaultCheckpointCost,
		OnDemandRate:   req.OnDemandPrice,
		MaxZones:       req.MaxZones,
	})
	if err != nil {
		return nil, err
	}
	wire := wirePlans(plans, req.Top)
	resp := &Response{
		Best:         wire[0],
		Alternatives: wire[1:],
		OnDemandCost: math.Ceil(req.WorkHours) * req.OnDemandPrice,
		Evaluated:    len(plans),
		History: HistoryInfo{
			Zones:       hist.Zones(),
			Samples:     hist.Series[0].Len(),
			WindowHours: float64(hist.Duration()) / float64(trace.Hour),
			Digest:      digest,
		},
	}
	return resp, nil
}

// seconds converts hours to whole simulation seconds.
func seconds(hours float64) int64 {
	return int64(math.Round(hours * float64(trace.Hour)))
}

// wirePlans converts the best top ranked plans to the wire format.
func wirePlans(plans []core.Plan, top int) []Plan {
	wire := make([]Plan, min(top, len(plans)))
	for i := range wire {
		wire[i] = toWire(plans[i])
	}
	return wire
}

// toWire converts a core plan to the wire format, expressing times in
// hours.
func toWire(p core.Plan) Plan {
	return Plan{
		Bid:                  p.Bid,
		Zones:                p.Zones,
		Policy:               p.Policy,
		PredictedCost:        p.PredictedCost,
		CostRatePerHour:      p.CostRate,
		ProgressRate:         p.ProgressRate,
		PredictedFinishHours: float64(p.PredictedFinish) / float64(trace.Hour),
		DeadlineMarginHours:  float64(p.DeadlineMargin) / float64(trace.Hour),
	}
}
