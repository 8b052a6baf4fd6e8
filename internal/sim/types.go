// Package sim is the discrete-time simulation engine for spot-market
// experiments. It implements the paper's Algorithm 1 framework:
//
//   - zone instances move between down / waiting / pending / up states
//     as the spot price crosses the bid;
//   - a deadline guard switches to the on-demand market the moment the
//     remaining slack equals the remaining computation plus migration
//     overhead, guaranteeing completion within the user bound D;
//   - pluggable CheckpointCondition / ScheduleNextCheckpoint hooks define
//     each checkpoint policy;
//   - a Strategy may re-parameterise the run (bid, zone set, policy) at
//     decision points, which is how the Adaptive scheme is expressed.
//
// Time advances in 5-minute steps (the paper's sampling interval).
// Progress, billing and checkpoint/restart latency are tracked exactly
// under the market package's EC2 billing rules.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/trace"
)

// InstanceState is the lifecycle state of one zone's spot instance.
type InstanceState int

// Instance states. Waiting matches the paper's state of the same name:
// the zone is eligible (bid ≥ spot price) but no instance has been
// requested, so it can adopt a fresh checkpoint before starting.
// Pending models a submitted request waiting out the queuing delay.
const (
	Down InstanceState = iota
	Waiting
	Pending
	Up
)

// String implements fmt.Stringer.
func (s InstanceState) String() string {
	switch s {
	case Down:
		return "down"
	case Waiting:
		return "waiting"
	case Pending:
		return "pending"
	case Up:
		return "up"
	default:
		return "unknown"
	}
}

// CheckpointPolicy supplies the two hooks of Algorithm 1.
type CheckpointPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset prepares the policy at run start and after a strategy
	// switch re-parameterises the run.
	Reset(env *Env)
	// CheckpointCondition reports whether a checkpoint should begin
	// now (evaluated once per step while at least one zone is up).
	CheckpointCondition(env *Env) bool
	// ScheduleNextCheckpoint is invoked after a checkpoint completes
	// and after restarts, letting the policy plan its next T_s.
	ScheduleNextCheckpoint(env *Env)
}

// Releaser is an optional policy extension for voluntary instance
// release (the Large-bid policy terminates instances manually when the
// spot price exceeds its cost-control threshold near the hour end).
type Releaser interface {
	// ShouldRelease reports whether the up instance in the zone should
	// be terminated by the user now.
	ShouldRelease(env *Env, zone int) bool
}

// Admission is an optional policy extension gating instance starts (the
// Large-bid policy refuses to start instances while the spot price is
// above its threshold even though the bid would admit them).
type Admission interface {
	// MayStart reports whether the zone may be started now.
	MayStart(env *Env, zone int) bool
}

// RunSpec parameterises the framework: the bid, the set of zones used
// (its length is the paper's redundancy degree N), and the checkpoint
// policy.
type RunSpec struct {
	// Bid is the user bid B in dollars per hour.
	Bid float64
	// Zones holds indices into the trace's zone list.
	Zones []int
	// Policy supplies the checkpoint hooks.
	Policy CheckpointPolicy
}

// Equal reports whether two specs request the same configuration.
func (s RunSpec) Equal(o RunSpec) bool {
	if s.Bid != o.Bid || s.Policy != o.Policy || len(s.Zones) != len(o.Zones) {
		return false
	}
	for i := range s.Zones {
		if s.Zones[i] != o.Zones[i] {
			return false
		}
	}
	return true
}

// EventKind classifies decision-point events offered to a Strategy.
type EventKind int

// Decision-point events, matching the paper's Adaptive triggers: a zone
// terminated out-of-bid, or a billing hour ended.
const (
	ProviderKill EventKind = iota
	HourBoundary
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case ProviderKill:
		return "provider-kill"
	case HourBoundary:
		return "hour-boundary"
	default:
		return "unknown"
	}
}

// Event is one decision-point occurrence.
type Event struct {
	Kind EventKind
	// Zone is the zone index the event concerns.
	Zone int
	// Time is the absolute time of the event.
	Time int64
}

// Strategy owns run-time configuration decisions. Static policies wrap
// a fixed RunSpec; the Adaptive scheme re-simulates permutations at
// decision points and switches. A strategy that also has a Validate()
// error method is validated before Begin, and a run it refuses fails
// with that error (Machine.Reset).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Begin returns the initial spec.
	Begin(env *Env) RunSpec
	// Reconsider is offered the step's decision-point events; returning
	// (spec, true) requests a switch to the new configuration.
	Reconsider(env *Env, events []Event) (RunSpec, bool)
}

// Config describes one experiment.
type Config struct {
	// Trace is the price window visible to the run; the experiment
	// starts at Trace.Start().
	Trace *trace.Set
	// History precedes the run and bootstraps prediction models (the
	// paper primes the Markov state with 2 days of history).
	History *trace.Set
	// Work is C: the uninterrupted computation time in seconds.
	Work int64
	// Deadline is D, in seconds from the experiment start.
	Deadline int64
	// CheckpointCost is t_c in seconds.
	CheckpointCost int64
	// RestartCost is t_r in seconds.
	RestartCost int64
	// Nodes is the number of VM instances per zone; it multiplies all
	// costs. Zero means 1 (the paper reports cost per instance).
	Nodes int
	// IterationSeconds is the application's progress granularity: the
	// paper's framework observes progress P through MPI_Pcontrol at
	// iteration boundaries, and a checkpoint can only capture completed
	// iterations. Zero means progress is continuous.
	IterationSeconds int64
	// Delay models the spot request queuing delay; nil selects the
	// paper's measured distribution.
	Delay market.DelayModel
	// Seed drives the run's private random stream (queuing delays).
	Seed uint64
	// RecordTimeline enables the detailed event log in the result.
	RecordTimeline bool
	// DisableDeadlineGuard turns off the on-demand fallback; used only
	// by estimation runs inside the Adaptive policy and by ablations.
	DisableDeadlineGuard bool
	// ObsTrace, when non-nil, receives simulated-time spans for the run
	// and its guard/fallback transitions. Nil (the default) records
	// nothing and costs nothing on the replay hot path.
	ObsTrace *obs.Tracer
}

// Validate reports configuration errors, including a deadline too tight
// to be guaranteed even by an immediate switch to on-demand.
func (c Config) Validate() error {
	if c.Trace == nil || c.Trace.NumZones() == 0 {
		return errors.New("sim: missing trace")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if c.Work <= 0 {
		return fmt.Errorf("sim: non-positive work %d", c.Work)
	}
	if c.CheckpointCost < 0 || c.RestartCost < 0 {
		return fmt.Errorf("sim: negative checkpoint/restart cost")
	}
	if !c.DisableDeadlineGuard {
		// The guard can always fall back to a from-scratch on-demand
		// run, so D must cover the work plus one step of grid margin.
		minDeadline := c.Work + c.Trace.Step()
		if c.Deadline < minDeadline {
			return fmt.Errorf("sim: deadline %d cannot be guaranteed; need >= %d", c.Deadline, minDeadline)
		}
	}
	if c.Nodes < 0 {
		return fmt.Errorf("sim: negative node count")
	}
	if c.IterationSeconds < 0 {
		return fmt.Errorf("sim: negative iteration length")
	}
	return nil
}

// TimelineKind classifies timeline events.
type TimelineKind int

// Timeline event kinds.
const (
	TLZoneUp TimelineKind = iota
	TLZoneDown
	TLZoneWaiting
	TLZonePending
	TLCheckpointStart
	TLCheckpointDone
	TLCheckpointAborted
	TLRestart
	TLSwitchSpec
	TLOnDemand
	TLComplete
)

// String implements fmt.Stringer.
func (k TimelineKind) String() string {
	switch k {
	case TLZoneUp:
		return "zone-up"
	case TLZoneDown:
		return "zone-down"
	case TLZoneWaiting:
		return "zone-waiting"
	case TLZonePending:
		return "zone-pending"
	case TLCheckpointStart:
		return "checkpoint-start"
	case TLCheckpointDone:
		return "checkpoint-done"
	case TLCheckpointAborted:
		return "checkpoint-aborted"
	case TLRestart:
		return "restart"
	case TLSwitchSpec:
		return "switch-spec"
	case TLOnDemand:
		return "on-demand"
	case TLComplete:
		return "complete"
	default:
		return "unknown"
	}
}

// TimelineEvent is one entry of the optional detailed run log.
type TimelineEvent struct {
	Time   int64
	Kind   TimelineKind
	Zone   int // -1 when not zone-specific
	Detail string
}

// Result summarises one run.
type Result struct {
	// Strategy and Policy name what produced the run.
	Strategy string
	Policy   string
	// Cost is the total dollars charged (already multiplied by Nodes).
	Cost float64
	// SpotCost and OnDemandCost split Cost by market.
	SpotCost     float64
	OnDemandCost float64
	// Completed reports whether the work finished.
	Completed bool
	// FinishTime is the absolute completion time (valid if Completed).
	FinishTime int64
	// DeadlineMet reports FinishTime within the deadline.
	DeadlineMet bool
	// SwitchedOnDemand reports the deadline guard fired.
	SwitchedOnDemand bool
	// Checkpoints counts completed checkpoints; AbortedCheckpoints
	// counts checkpoints lost to mid-checkpoint terminations.
	Checkpoints        int
	AbortedCheckpoints int
	// Restarts counts instance starts that restored a checkpoint.
	Restarts int
	// ProviderKills counts out-of-bid terminations; UserReleases counts
	// voluntary terminations.
	ProviderKills int
	UserReleases  int
	// SpecSwitches counts strategy re-configurations.
	SpecSwitches int
	// Committed is the checkpointed progress P at the end of the run
	// (equals Work for completed runs).
	Committed int64
	// Time attribution (seconds, summed across zones):
	// ReworkSeconds is speculative progress lost to terminations and
	// rollbacks; OverheadSeconds is time spent checkpointing and
	// restoring. Together with the committed work they explain where
	// the paid instance-hours went.
	ReworkSeconds   int64
	OverheadSeconds int64
	// MaxProgress is the furthest replica progress at the end of the
	// run, including speculative work not yet committed; estimation
	// runs that end with the trace use it to measure a configuration's
	// progress rate without the artificial last-checkpoint lag.
	MaxProgress int64
	// Ledger is the full charge ledger (per single node).
	Ledger market.Ledger
	// Timeline is the detailed log when recording was enabled.
	Timeline []TimelineEvent
}
