// Package livesched turns the simulation engine into a deployable
// controller: the same Algorithm 1 state machine (sim.Machine) driven
// by a streaming price feed in wall-clock time, with every externally
// visible transition — spot requests, terminations, checkpoints, the
// on-demand migration — delivered to an Actuator that a real deployment
// would wire to cloud APIs and to the application's checkpoint hooks.
//
// The scheduler consumes one aligned price sample per step from a Feed
// (the paper's 5-minute cadence), appends it to a growing trace, and
// advances the machine. Because the machine is exactly the code the
// evaluation ran, every property established there — the deadline
// guarantee foremost — carries over to live operation.
package livesched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Feed supplies aligned spot price samples, one row per step.
type Feed interface {
	// Zones returns the zone names, fixed for the feed's lifetime.
	Zones() []string
	// Step returns the sampling interval in seconds.
	Step() int64
	// Next blocks until the next sample row (one price per zone, in
	// Zones order) is available. It returns io.EOF when the feed ends.
	Next(ctx context.Context) ([]float64, error)
}

// ActionKind classifies scheduler actions and observations.
type ActionKind int

// Action kinds. Request/Cancel/Terminate/Checkpoint/Restore/OnDemand
// are actions a deployment must perform; InstanceUp/InstanceLost are
// observations surfaced for symmetry.
const (
	ActRequestSpot ActionKind = iota
	ActCancelRequest
	ActInstanceUp
	ActInstanceLost
	ActTerminate
	ActCheckpointStart
	ActCheckpointDone
	ActCheckpointAborted
	ActSwitchConfig
	ActStartOnDemand
	ActComplete
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActRequestSpot:
		return "request-spot"
	case ActCancelRequest:
		return "cancel-request"
	case ActInstanceUp:
		return "instance-up"
	case ActInstanceLost:
		return "instance-lost"
	case ActTerminate:
		return "terminate"
	case ActCheckpointStart:
		return "checkpoint-start"
	case ActCheckpointDone:
		return "checkpoint-done"
	case ActCheckpointAborted:
		return "checkpoint-aborted"
	case ActSwitchConfig:
		return "switch-config"
	case ActStartOnDemand:
		return "start-on-demand"
	case ActComplete:
		return "complete"
	default:
		return "unknown"
	}
}

// Action is one externally visible scheduling step.
type Action struct {
	Kind ActionKind
	// Time is the scheduler time in seconds since the run started.
	Time int64
	// Zone is the zone name, empty when not zone-specific.
	Zone string
	// Bid is the active bid at the time of the action.
	Bid float64
	// Detail carries auxiliary information (e.g. the new configuration
	// on a switch).
	Detail string
}

// Actuator receives actions as they happen.
type Actuator interface {
	Act(ctx context.Context, a Action) error
}

// ActuatorFunc adapts a function to the Actuator interface.
type ActuatorFunc func(ctx context.Context, a Action) error

// Act implements Actuator.
func (f ActuatorFunc) Act(ctx context.Context, a Action) error { return f(ctx, a) }

// Config parameterises a live run; it mirrors sim.Config minus the
// trace, which the feed supplies.
type Config struct {
	// Work is C in seconds.
	Work int64
	// Deadline is D in seconds from the run start.
	Deadline int64
	// CheckpointCost and RestartCost are t_c and t_r in seconds.
	CheckpointCost int64
	RestartCost    int64
	// History optionally primes prediction models with trailing price
	// history; its end must coincide with the run start (time 0).
	History *trace.Set
	// Delay models the spot request queuing delay (nil: measured).
	Delay market.DelayModel
	// Seed drives the run's random stream.
	Seed uint64
	// WatchdogGap bounds the wall-clock silence the scheduler tolerates
	// between samples once the run has started. When a gap exceeds it,
	// the scheduler stops waiting and drives the machine to the paper's
	// on-demand fallback, so a stalled feed consumes the watchdog bound
	// — not the deadline margin. 0 disables the watchdog. Deployments
	// should set it well below the slack D − C and above the feed's
	// normal inter-sample spacing.
	WatchdogGap time.Duration
	// FallbackOnFeedError degrades hard feed failures (exhausted
	// retries, unexpected stream end) into the on-demand fallback
	// instead of aborting the run with an error. The deadline guarantee
	// then holds even when the price feed never comes back.
	FallbackOnFeedError bool
	// Trace, when non-nil, receives simulated-time spans for the run,
	// its guard/fallback transitions and the degraded-path events
	// (watchdog trips, absorbed feed errors).
	Trace *obs.Tracer
}

// Degradation reports the scheduler's degraded-path observations for
// one run: how often the watchdog fired, how many samples failed
// validation and were skipped, and how many hard feed errors were
// absorbed by the on-demand fallback.
type Degradation struct {
	// WatchdogTrips counts feed gaps that exceeded WatchdogGap.
	WatchdogTrips int
	// InvalidRows counts samples dropped by validation (wrong arity,
	// non-finite or negative prices).
	InvalidRows int
	// FeedErrors counts hard feed failures absorbed by the fallback.
	FeedErrors int
}

// ErrFeedEnded reports that the price feed ended before the job
// finished; the deadline guarantee cannot be maintained without data.
var ErrFeedEnded = errors.New("livesched: price feed ended before completion")

// ErrWatchdog reports that the feed watchdog tripped: no valid sample
// arrived within Config.WatchdogGap. Runs configured with a watchdog
// degrade to on-demand instead of surfacing it; it only escapes Run
// when the gap opens before the first sample, when no machine exists to
// migrate.
var ErrWatchdog = errors.New("livesched: feed watchdog tripped: sample gap exceeded bound")

// Scheduler drives one job to completion against a live feed.
type Scheduler struct {
	cfg  Config
	st   sim.Strategy
	feed Feed
	act  Actuator

	machine *sim.Machine
	series  []*trace.Series
	drained int // timeline events already dispatched
	deg     Degradation
}

// Degradation returns the degraded-path observations recorded so far;
// call it after Run for the whole-run picture.
func (s *Scheduler) Degradation() Degradation { return s.deg }

// New validates the configuration and returns a scheduler ready to Run.
func New(cfg Config, strat sim.Strategy, feed Feed, act Actuator) (*Scheduler, error) {
	if strat == nil || feed == nil || act == nil {
		return nil, errors.New("livesched: nil strategy, feed or actuator")
	}
	if len(feed.Zones()) == 0 {
		return nil, errors.New("livesched: feed has no zones")
	}
	if feed.Step() <= 0 {
		return nil, errors.New("livesched: feed has no step")
	}
	return &Scheduler{cfg: cfg, st: strat, feed: feed, act: act}, nil
}

// Run executes the job: it blocks until completion, feed end, actuator
// failure or context cancellation, returning the final result on
// success. With a watchdog or FallbackOnFeedError configured, feed
// degradation ends the run through the on-demand fallback — still a
// successful, deadline-honouring result — rather than an error.
func (s *Scheduler) Run(ctx context.Context) (*sim.Result, error) {
	// The machine needs at least one price sample to exist before
	// strategies inspect current prices.
	first, err := s.sample(ctx)
	if err != nil {
		if err == io.EOF {
			return nil, ErrFeedEnded
		}
		return nil, err
	}
	if err := s.start(first); err != nil {
		return nil, err
	}
	for !s.machine.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.machine.HasData() {
			if err := s.machine.Step(); err != nil {
				return nil, err
			}
			if err := s.dispatch(ctx); err != nil {
				return nil, err
			}
			continue
		}
		row, err := s.sample(ctx)
		if err != nil {
			return s.degrade(ctx, err)
		}
		s.append(row)
	}
	return s.machine.Result(), nil
}

// sample fetches the next valid row, skipping rows that fail
// validation and bounding the wall-clock wait by the watchdog gap.
func (s *Scheduler) sample(ctx context.Context) ([]float64, error) {
	for {
		row, err := s.next(ctx)
		if err != nil {
			return nil, err
		}
		if s.validRow(row) {
			return row, nil
		}
		s.deg.InvalidRows++
	}
}

// next is one feed read under the watchdog clock.
func (s *Scheduler) next(ctx context.Context) ([]float64, error) {
	if s.cfg.WatchdogGap <= 0 {
		return s.feed.Next(ctx)
	}
	wctx, cancel := context.WithTimeout(ctx, s.cfg.WatchdogGap)
	defer cancel()
	row, err := s.feed.Next(wctx)
	if err != nil && errors.Is(wctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
		return nil, ErrWatchdog
	}
	return row, err
}

// validRow rejects rows a faulty feed could deliver: wrong arity,
// non-finite or negative prices. Invalid rows are skipped — the 5-minute
// slot simply goes unsampled, the same observable outcome as a dropped
// sample — so one corrupted upstream message cannot poison the growing
// trace the deadline guarantee is computed over.
func (s *Scheduler) validRow(row []float64) bool {
	if len(row) != len(s.feed.Zones()) {
		return false
	}
	for _, p := range row {
		if !trace.ValidPrice(p) {
			return false
		}
	}
	return true
}

// degrade ends a started run after a feed failure: watchdog trips
// always fall back to on-demand (that is the watchdog's contract), hard
// feed errors do so when FallbackOnFeedError is set, and anything else
// — including context cancellation — surfaces as before.
func (s *Scheduler) degrade(ctx context.Context, err error) (*sim.Result, error) {
	switch {
	case errors.Is(err, ErrWatchdog):
		s.deg.WatchdogTrips++
		s.degradeSpan("livesched.watchdog-trip")
	case errors.Is(err, context.Canceled) || (errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil):
		return nil, err
	case s.cfg.FallbackOnFeedError:
		s.deg.FeedErrors++
		s.degradeSpan("livesched.feed-error")
	case err == io.EOF:
		return nil, ErrFeedEnded
	default:
		return nil, err
	}
	res := s.machine.ForceOnDemand()
	if derr := s.dispatch(ctx); derr != nil {
		return nil, derr
	}
	return res, nil
}

// degradeSpan records one instantaneous degraded-path span at the
// machine's current simulated time.
func (s *Scheduler) degradeSpan(name string) {
	if s.cfg.Trace == nil {
		return
	}
	now := s.machine.Env().Now
	s.cfg.Trace.Record(obs.Span{Name: name, Clock: obs.SimClock, Start: now, End: now})
}

// start builds the growing trace seeded with the first sample and
// constructs the machine.
func (s *Scheduler) start(first []float64) error {
	zones := s.feed.Zones()
	if len(first) != len(zones) {
		return fmt.Errorf("livesched: sample has %d prices for %d zones", len(first), len(zones))
	}
	s.series = make([]*trace.Series, len(zones))
	for i, name := range zones {
		s.series[i] = &trace.Series{Zone: name, Epoch: 0, Step: s.feed.Step(), Prices: []float64{first[i]}}
	}
	set, err := trace.NewSet(s.series...)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Trace:          set,
		History:        s.cfg.History,
		Work:           s.cfg.Work,
		Deadline:       s.cfg.Deadline,
		CheckpointCost: s.cfg.CheckpointCost,
		RestartCost:    s.cfg.RestartCost,
		Delay:          s.cfg.Delay,
		Seed:           s.cfg.Seed,
		RecordTimeline: true, // actions derive from the timeline
		ObsTrace:       s.cfg.Trace,
	}
	m, err := sim.NewMachine(cfg, s.st)
	if err != nil {
		return err
	}
	s.machine = m
	return nil
}

// append adds one sample row to the growing trace.
func (s *Scheduler) append(row []float64) {
	for i := range s.series {
		s.series[i].Prices = append(s.series[i].Prices, row[i])
	}
}

// dispatch translates newly recorded timeline events into actions.
func (s *Scheduler) dispatch(ctx context.Context) error {
	env := s.machine.Env()
	events := env.TimelineEvents()
	for ; s.drained < len(events); s.drained++ {
		a, ok := translate(env, events[s.drained])
		if !ok {
			continue
		}
		if err := s.act.Act(ctx, a); err != nil {
			return fmt.Errorf("livesched: actuator failed on %s: %w", a.Kind, err)
		}
	}
	return nil
}

// translate maps a timeline event to an external action.
func translate(env *sim.Env, ev sim.TimelineEvent) (Action, bool) {
	zone := ""
	if ev.Zone >= 0 && ev.Zone < len(env.Zones) {
		zone = env.Zones[ev.Zone].Name
	}
	a := Action{Time: ev.Time - env.StartTime, Zone: zone, Bid: env.Spec.Bid, Detail: ev.Detail}
	switch ev.Kind {
	case sim.TLZonePending:
		a.Kind = ActRequestSpot
	case sim.TLZoneUp:
		a.Kind = ActInstanceUp
	case sim.TLZoneDown:
		switch ev.Detail {
		case "provider-kill":
			a.Kind = ActInstanceLost
		case "user-release":
			a.Kind = ActTerminate
		case "request-cancelled", "spec-switch", "out-of-bid":
			a.Kind = ActCancelRequest
		default:
			return Action{}, false
		}
	case sim.TLCheckpointStart:
		a.Kind = ActCheckpointStart
	case sim.TLCheckpointDone:
		a.Kind = ActCheckpointDone
	case sim.TLCheckpointAborted:
		a.Kind = ActCheckpointAborted
	case sim.TLSwitchSpec:
		a.Kind = ActSwitchConfig
	case sim.TLOnDemand:
		a.Kind = ActStartOnDemand
	case sim.TLComplete:
		a.Kind = ActComplete
	default:
		return Action{}, false
	}
	return a, true
}
