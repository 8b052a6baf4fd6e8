package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/markov"
	"repro/internal/sim"
)

// PolicyFamily is a checkpoint policy family: the paper's §4 policies,
// §7.2.2's Large-bid and the repository's Changepoint extension.
type PolicyFamily uint8

// The policy families, in the order StrategyNames lists them.
const (
	FamilyPeriodic PolicyFamily = iota
	FamilyMarkovDaly
	FamilyEdge
	FamilyThreshold
	FamilyChangepoint
	FamilyLargeBid
)

// familyNames are the families' bare names, indexed by family; each is
// its policy's Name().
var familyNames = []string{"periodic", "markov-daly", "edge", "threshold", "changepoint", "large-bid"}

// String returns the family's bare name.
func (f PolicyFamily) String() string { return familyNames[f] }

// DefaultLargeBidL is Large-bid's threshold when a descriptor sets none:
// the paper's reference bid for cc2.8xlarge, in dollars per hour.
const DefaultLargeBidL = 0.81

// PolicySpec is the one descriptor of a checkpoint policy: its family
// and the parameters callers set. A parameter's zero value selects the
// family default and another family's parameter is ignored, so the zero
// PolicySpec is default Periodic. String prints it and ParsePolicy reads
// that back; descriptors that print the same build the same policy.
// Ranked plans and decision records name a policy by its String.
type PolicySpec struct {
	// Family selects the policy family.
	Family PolicyFamily
	// HistorySpan is the price history Markov-Daly fits its chain to,
	// in seconds; 0 selects markov.DefaultHistory (two days).
	HistorySpan int64
	// FirstOrder selects Young's first-order checkpoint interval over
	// Daly's higher-order one for Markov-Daly.
	FirstOrder bool
	// L is Large-bid's cost-control threshold in dollars per hour; 0
	// selects DefaultLargeBidL and +Inf is the paper's naive variant.
	L float64
}

// New builds a fresh instance of the policy; policies hold run state,
// so every run needs its own.
func (s PolicySpec) New() sim.CheckpointPolicy {
	switch s.Family {
	case FamilyPeriodic:
		return NewPeriodic()
	case FamilyMarkovDaly:
		m := NewMarkovDaly()
		if s.HistorySpan > 0 {
			m.HistorySpan = s.HistorySpan
		}
		m.HigherOrder = !s.FirstOrder
		return m
	case FamilyEdge:
		return NewEdge()
	case FamilyThreshold:
		return NewThreshold()
	case FamilyChangepoint:
		return NewChangepoint()
	case FamilyLargeBid:
		return NewLargeBid(cmp.Or(s.L, DefaultLargeBidL))
	}
	panic(fmt.Sprintf("core: no policy family %d", s.Family))
}

// String returns the descriptor: the family's bare name, then
// ":key=value" for each of its parameters that is set, in the order
// span, order, L.
func (s PolicySpec) String() string {
	out := s.Family.String()
	if s.Family == FamilyMarkovDaly && s.HistorySpan > 0 {
		out += ":span=" + (time.Duration(s.HistorySpan) * time.Second).String()
	}
	if s.Family == FamilyMarkovDaly && s.FirstOrder {
		out += ":order=1"
	}
	if s.Family == FamilyLargeBid && s.L != 0 {
		out += ":L=" + strconv.FormatFloat(s.L, 'g', -1, 64)
	}
	return out
}

// ParsePolicy reads a policy descriptor, family[:key=value]...: a
// family's bare name, then its parameters, each at most once, in any
// order. Markov-Daly takes span, a positive whole number of seconds as
// a Go duration (6h, 90m, 21600s), and order, 1 for Young's first-order
// interval or 2 for Daly's higher-order default; Large-bid takes L, a
// positive threshold in dollars per hour or inf for the naive variant.
// A parameter given its default value is left unset, so the result
// prints canonically.
func ParsePolicy(name string) (PolicySpec, error) {
	fam, params, hasParams := strings.Cut(name, ":")
	f := slices.Index(familyNames, fam)
	if f < 0 {
		return PolicySpec{}, fmt.Errorf("core: unknown policy family %q", fam)
	}
	s := PolicySpec{Family: PolicyFamily(f)}
	var kvs, seen []string
	if hasParams {
		kvs = strings.Split(params, ":")
	}
	for _, kv := range kvs {
		key, val, _ := strings.Cut(kv, "=")
		ok := !slices.Contains(seen, key)
		switch {
		case s.Family == FamilyMarkovDaly && key == "span":
			d, err := time.ParseDuration(val)
			ok = ok && err == nil && d > 0 && d%time.Second == 0
			s.HistorySpan = int64(d / time.Second)
		case s.Family == FamilyMarkovDaly && key == "order":
			ok = ok && (val == "1" || val == "2")
			s.FirstOrder = val == "1"
		case s.Family == FamilyLargeBid && key == "L":
			var err error
			s.L, err = strconv.ParseFloat(val, 64)
			ok = ok && err == nil && s.L > 0
		default:
			ok = false
		}
		if !ok {
			return PolicySpec{}, fmt.Errorf("core: policy %q: bad or repeated parameter %q", name, kv)
		}
		seen = append(seen, key)
	}
	if s.HistorySpan == markov.DefaultHistory {
		s.HistorySpan = 0
	}
	if s.L == DefaultLargeBidL {
		s.L = 0
	}
	return s, nil
}

// Static runs the policy unchanged at bid over zones 0..n-1: SingleZone
// for n = 1, Redundant otherwise. Large-bid is strictly single-zone and
// bids LargeBidAmount whatever bid and n say (§7.2.2).
func (s PolicySpec) Static(bid float64, n int) *Static {
	p := s.New()
	switch {
	case s.Family == FamilyLargeBid:
		return NewStatic("large-bid", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: p})
	case n == 1:
		return SingleZone(p, bid, 0)
	}
	zones := make([]int, n)
	for i := range zones {
		zones[i] = i
	}
	return Redundant(p, bid, zones)
}

// StrategyNames lists the bare names NewStrategy accepts: every policy
// family, then "adaptive" and "on-demand".
func StrategyNames() []string {
	return append(slices.Clip(familyNames), "adaptive", "on-demand")
}

// StrategyUsage describes NewStrategy's names for command-line help.
func StrategyUsage() string {
	return strings.Join(StrategyNames(), ", ") + "; markov-daly and large-bid take parameters, as markov-daly:span=6h or large-bid:L=inf; adaptive, on-demand and large-bid (always $100 in one zone) ignore bid and n"
}

// NewStrategy builds the strategy a command-line policy name selects:
// the Adaptive scheme, the on-demand baseline, or a policy descriptor
// run static at bid over the first n of nz zones (PolicySpec.Static).
func NewStrategy(name string, bid float64, n, nz int) (sim.Strategy, error) {
	switch name {
	case "adaptive":
		return NewAdaptive(), nil
	case "on-demand":
		return NewOnDemandOnly(), nil
	}
	spec, err := ParsePolicy(name)
	if err != nil {
		return nil, fmt.Errorf("%w; strategies are %s", err, strings.Join(StrategyNames(), ", "))
	}
	if spec.Family != FamilyLargeBid && (n < 1 || n > nz) {
		return nil, fmt.Errorf("core: n must be in 1..%d, got %d", nz, n)
	}
	return spec.Static(bid, n), nil
}
