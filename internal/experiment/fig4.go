package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Policy kind identifiers used across the harness.
const (
	KindThreshold  = "threshold"
	KindEdge       = "edge"
	KindPeriodic   = "periodic"
	KindMarkovDaly = "markov-daly"
)

// SinglePolicies are the single-zone checkpoint policies of Figure 4,
// in the paper's x-axis order (T, E, P, M).
var SinglePolicies = []string{KindThreshold, KindEdge, KindPeriodic, KindMarkovDaly}

// RedundantPolicies are the policy families run with N = 3 redundancy;
// the figures show their per-experiment best case ("R").
var RedundantPolicies = []string{KindThreshold, KindEdge, KindPeriodic, KindMarkovDaly}

// NewPolicy builds a fresh policy instance of the given kind, a policy
// descriptor (core.ParsePolicy); it panics on one that does not parse.
func NewPolicy(kind string) sim.CheckpointPolicy { return mustPolicy(kind).New() }

// mustPolicy parses a policy descriptor the harness names itself, once
// per driver; one that does not parse is a bug of the harness.
func mustPolicy(kind string) core.PolicySpec {
	pol, err := core.ParsePolicy(kind)
	if err != nil {
		panic("experiment: " + err.Error())
	}
	return pol
}

// task pairs a run with the slot its cost lands in and, when met is
// set, the slot its deadline outcome lands in.
type task struct {
	cfg   sim.Config
	strat sim.Strategy
	out   *float64
	met   *bool
}

// runTasks executes tasks in parallel, each on a pooled machine
// (sim.RunPooled) that it reads its slots from before the machine goes
// back to the pool; the first error aborts the batch result (individual
// runs are deterministic, so errors are structural). Each task drops
// its strategy once run, and so does the released machine, so a
// finished run's policy state (a Markov-Daly's fitters, say) is garbage
// before the batch ends. The finished batch's costs fold into the
// suite's cost digest in task order.
func (s *Suite) runTasks(tasks []task) error {
	errs := make([]error, len(tasks))
	s.parallel(len(tasks), func(i int) {
		t := &tasks[i]
		*t.out = math.NaN()
		errs[i] = sim.RunPooled(t.cfg, t.strat, func(res *sim.Result) {
			*t.out = res.Cost
			if t.met != nil {
				*t.met = res.DeadlineMet
			}
		})
		t.strat = nil
	})
	s.mu.Lock()
	if s.costs == nil {
		s.costs = fnv.New64a()
	}
	var b [8]byte
	for _, t := range tasks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(*t.out))
		s.costs.Write(b[:])
	}
	s.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig4Cell holds one panel of Figure 4: every single-zone policy and
// the best-case redundancy policy, per bid and merged across the
// highlighted bids, as total cost per instance in dollars.
type Fig4Cell struct {
	Regime string
	Slack  float64
	Tc     int64
	Bids   []float64
	// Singles maps policy kind → bid → boxplot over windows × zones
	// (the paper merges the three zones into one box).
	Singles map[string]map[float64]stats.Box
	// BestRedundant maps bid → boxplot of the per-window minimum cost
	// across the redundant policy family (the paper's best-case R).
	BestRedundant map[float64]stats.Box
	// References: the on-demand and minimum-spot cost lines.
	OnDemandRef, MinSpotRef float64
	// RedundancySignificance is the Mann-Whitney comparison of the
	// best-case redundancy costs against the best single-zone policy's
	// costs at the paper's $0.81 bid: a small p-value with effect size
	// below 0.5 certifies the cell's redundancy advantage.
	RedundancySignificance stats.MannWhitneyResult
}

// Fig4 reproduces one panel of Figure 4 (and the underlying data for
// Tables 2 and 3): single-zone Threshold/Edge/Periodic/Markov-Daly
// versus best-case redundancy at the figure's bid prices.
func (s *Suite) Fig4(regime string, slack float64, tc int64, bids []float64) (*Fig4Cell, error) {
	if bids == nil {
		bids = core.Figure4Bids()
	}
	set := s.Regime(regime)
	windows := s.windowsFor(set, slack)
	if len(windows) == 0 {
		return nil, fmt.Errorf("experiment: regime %q cannot host any window at slack %g", regime, slack)
	}
	zones := make([]int, set.NumZones())
	for i := range zones {
		zones[i] = i
	}

	cell := &Fig4Cell{
		Regime: regime, Slack: slack, Tc: tc, Bids: bids,
		Singles:       map[string]map[float64]stats.Box{},
		BestRedundant: map[float64]stats.Box{},
		OnDemandRef:   s.OnDemandReferenceCost(),
		MinSpotRef:    s.MinSpotReferenceCost(),
	}

	var tasks []task

	// Single-zone runs: policy × bid × zone × window.
	singleCosts := map[string]map[float64][]float64{}
	for _, kind := range SinglePolicies {
		pol := mustPolicy(kind)
		singleCosts[kind] = map[float64][]float64{}
		for _, bid := range bids {
			costs := make([]float64, len(windows)*len(zones))
			singleCosts[kind][bid] = costs
			for zi := range zones {
				for wi, w := range windows {
					tasks = append(tasks, task{
						cfg:   s.Config(w, slack, tc),
						strat: core.SingleZone(pol.New(), bid, zones[zi]),
						out:   &costs[zi*len(windows)+wi],
					})
				}
			}
		}
	}

	// Redundant runs: policy × bid × window; reduced to the per-window
	// best case afterwards.
	redCosts := map[string]map[float64][]float64{}
	for _, kind := range RedundantPolicies {
		pol := mustPolicy(kind)
		redCosts[kind] = map[float64][]float64{}
		for _, bid := range bids {
			costs := make([]float64, len(windows))
			redCosts[kind][bid] = costs
			for wi, w := range windows {
				tasks = append(tasks, task{
					cfg:   s.Config(w, slack, tc),
					strat: core.Redundant(pol.New(), bid, zones),
					out:   &costs[wi],
				})
			}
		}
	}

	if err := s.runTasks(tasks); err != nil {
		return nil, err
	}

	// Aggregate.
	for _, kind := range SinglePolicies {
		cell.Singles[kind] = map[float64]stats.Box{}
		for _, bid := range bids {
			cell.Singles[kind][bid] = stats.NewBox(singleCosts[kind][bid])
		}
	}
	bestRed := map[float64][]float64{}
	for _, bid := range bids {
		best := make([]float64, len(windows))
		for wi := range best {
			best[wi] = math.Inf(1)
			for _, kind := range RedundantPolicies {
				if c := redCosts[kind][bid][wi]; c < best[wi] {
					best[wi] = c
				}
			}
		}
		bestRed[bid] = best
		cell.BestRedundant[bid] = stats.NewBox(best)
	}

	// Significance of the redundancy advantage at the paper's focus bid.
	const focusBid = 0.81
	if red, ok := bestRed[focusBid]; ok {
		bestKind := ""
		bestMedian := math.Inf(1)
		for _, kind := range SinglePolicies {
			if m := cell.Singles[kind][focusBid].Median; m < bestMedian {
				bestMedian = m
				bestKind = kind
			}
		}
		if bestKind != "" {
			cell.RedundancySignificance = stats.MannWhitney(red, singleCosts[bestKind][focusBid])
		}
	}
	return cell, nil
}

// BestPolicy summarises a Table 2/3 cell: the policy (and bid) with the
// lowest median cost.
type BestPolicy struct {
	Regime string
	Slack  float64
	Tc     int64
	// Policy is the winning configuration: one of the single-zone
	// kinds, or "redundancy".
	Policy string
	Bid    float64
	Median float64
	// RunnerUp is the second-best configuration and its median.
	RunnerUp       string
	RunnerUpMedian float64
}

// BestPolicyCell reduces a Fig4Cell to its Table 2/3 entry.
func BestPolicyCell(cell *Fig4Cell) BestPolicy {
	best := BestPolicy{Regime: cell.Regime, Slack: cell.Slack, Tc: cell.Tc, Median: math.Inf(1), RunnerUpMedian: math.Inf(1)}
	consider := func(policy string, bid, median float64) {
		if median < best.Median {
			best.RunnerUp, best.RunnerUpMedian = best.Policy, best.Median
			best.Policy, best.Bid, best.Median = policy, bid, median
		} else if median < best.RunnerUpMedian {
			best.RunnerUp, best.RunnerUpMedian = policy, median
		}
	}
	for _, kind := range SinglePolicies {
		for _, bid := range cell.Bids {
			consider(kind, bid, cell.Singles[kind][bid].Median)
		}
	}
	for _, bid := range cell.Bids {
		consider("redundancy", bid, cell.BestRedundant[bid].Median)
	}
	return best
}

// Fig4All runs every Figure 4 panel at checkpoint cost tc: low then
// high volatility, each at both slacks.
func (s *Suite) Fig4All(tc int64) ([]*Fig4Cell, error) {
	var out []*Fig4Cell
	for _, regime := range []string{RegimeLow, RegimeHigh} {
		for _, slack := range Slacks {
			cell, err := s.Fig4(regime, slack, tc, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// Table reproduces Table 2 (t_c = 300 s) or Table 3 (t_c = 900 s): the
// optimal policy per (volatility, slack) cell.
func (s *Suite) Table(tc int64) ([]BestPolicy, error) {
	cells, err := s.Fig4All(tc)
	if err != nil {
		return nil, err
	}
	out := make([]BestPolicy, len(cells))
	for i, cell := range cells {
		out[i] = BestPolicyCell(cell)
	}
	return out, nil
}
