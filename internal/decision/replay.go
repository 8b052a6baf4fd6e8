package decision

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Outcome summarises one run for regret accounting: the cost split,
// completion facts, waste attribution and the full-run Digest.
type Outcome struct {
	// Cost is the total dollars charged.
	Cost float64 `json:"cost"`
	// SpotCost and OnDemandCost split Cost by market.
	SpotCost     float64 `json:"spot_cost"`
	OnDemandCost float64 `json:"on_demand_cost"`
	// Completed reports whether the work finished.
	Completed bool `json:"completed"`
	// FinishTime is the absolute completion time.
	FinishTime int64 `json:"finish_time"`
	// DeadlineMet reports FinishTime within the deadline.
	DeadlineMet bool `json:"deadline_met"`
	// SwitchedOnDemand reports the deadline guard fired.
	SwitchedOnDemand bool `json:"switched_on_demand"`
	// Checkpoints, Restarts and SpecSwitches count run events.
	Checkpoints  int `json:"checkpoints"`
	Restarts     int `json:"restarts"`
	SpecSwitches int `json:"spec_switches"`
	// ReworkSeconds and OverheadSeconds attribute wasted time.
	ReworkSeconds   int64 `json:"rework_seconds"`
	OverheadSeconds int64 `json:"overhead_seconds"`
	// Digest is the bit-identity fingerprint of the whole run.
	Digest string `json:"digest"`
}

// Summarize extracts an Outcome from a live result (valid to call on a
// pooled machine's result inside the consume callback: everything,
// including the ledger digest, is copied out).
func Summarize(res *sim.Result) Outcome {
	return Outcome{
		Cost:             res.Cost,
		SpotCost:         res.SpotCost,
		OnDemandCost:     res.OnDemandCost,
		Completed:        res.Completed,
		FinishTime:       res.FinishTime,
		DeadlineMet:      res.DeadlineMet,
		SwitchedOnDemand: res.SwitchedOnDemand,
		Checkpoints:      res.Checkpoints,
		Restarts:         res.Restarts,
		SpecSwitches:     res.SpecSwitches,
		ReworkSeconds:    res.ReworkSeconds,
		OverheadSeconds:  res.OverheadSeconds,
		Digest:           Digest(res),
	}
}

// Counterfactual is one forced-rival replay: what the run would have
// cost had the strategy taken this rival at this decision point, with
// every other decision up to that point pinned and every later decision
// made live by the Adaptive strategy.
type Counterfactual struct {
	// Seq is the decision the rival was forced at.
	Seq int `json:"seq"`
	// Rank is the rival's position in the decision's ranked grid.
	Rank int `json:"rank"`
	// Rival is the forced permutation.
	Rival Alt `json:"rival"`
	// Outcome is the counterfactual run's summary.
	Outcome Outcome `json:"outcome"`
	// CostDelta is counterfactual cost minus baseline cost: positive
	// means the rival would have cost more.
	CostDelta float64 `json:"cost_delta"`
}

// DecisionRegret aggregates the counterfactuals of one decision point.
type DecisionRegret struct {
	// Seq, Time, Trigger and Chosen identify the decision.
	Seq     int    `json:"seq"`
	Time    int64  `json:"time"`
	Trigger string `json:"trigger"`
	Chosen  Alt    `json:"chosen"`
	// Rivals holds the forced-rival replays, in rank order.
	Rivals []Counterfactual `json:"rivals"`
	// Regret is the realized regret of the decision: how many dollars
	// the best evaluated rival would have saved, floored at zero.
	Regret float64 `json:"regret"`
}

// Report is the regret table of one recorded run.
type Report struct {
	// Baseline is the recorded run's outcome.
	Baseline Outcome `json:"baseline"`
	// Decisions holds per-decision regret, in sequence order.
	Decisions []DecisionRegret `json:"decisions"`
	// Counterfactuals counts the replays evaluated.
	Counterfactuals int `json:"counterfactuals"`
	// MaxRegret is the largest per-decision regret.
	MaxRegret float64 `json:"max_regret"`
	// TotalRegret sums per-decision regrets (an upper bound on the
	// improvement any single-decision change could buy, summed over
	// decisions; useful as a tuning signal, not as achievable savings).
	TotalRegret float64 `json:"total_regret"`
}

// Replayer runs counterfactual replays of a recorded Adaptive run. The
// configuration must be exactly the recorded run's (trace, history,
// work, deadline, costs, delay model, seed): counterfactual identity is
// only meaningful against the same world.
type Replayer struct {
	// Cfg is the run configuration to replay under.
	Cfg sim.Config
	// New builds the strategy of every run: the baseline, the oracle
	// and each counterfactual; nil selects core.NewAdaptive. Each call
	// must return a fresh instance with the same settings.
	New func() *core.Adaptive
	// TopK bounds how many rivals are forced per decision; 0 selects 3.
	TopK int
	// Workers bounds the replay fan-out; 0 selects GOMAXPROCS.
	Workers int
	// Naive routes counterfactuals through the naive baseline: no
	// pinned prefix — the live strategy re-runs every prefix sweep from
	// scratch — and a fresh (unpooled) machine per replay. It exists
	// for the speedup benchmark; results are identical.
	Naive bool
}

// newAdaptive builds a fresh strategy instance.
func (r *Replayer) newAdaptive() *core.Adaptive {
	if r.New != nil {
		return r.New()
	}
	return core.NewAdaptive()
}

// Baseline runs the strategy once with a recorder attached and returns
// its outcome and decision log. It refuses candidates whose decisions a
// replay could not resolve: two equal candidate descriptors.
func (r *Replayer) Baseline() (Outcome, []Record, error) {
	a := r.newAdaptive()
	if err := core.CheckScript(a.Candidates, nil); err != nil {
		return Outcome{}, nil, err
	}
	col := &Collector{}
	a.Sink = col
	res, err := sim.Run(r.Cfg, a)
	if err != nil {
		return Outcome{}, nil, err
	}
	return Summarize(res), col.Records(), nil
}

// Counterfactual replays one forced rival: decisions before seq replay
// pinned from the log, the rival is forced at seq, and the Adaptive
// strategy decides live afterwards. Forcing the recorded choice pins
// it, Switched flag included, so that replay is the recorded run; a
// naive replay pins nothing and decides live up to seq. It returns the
// run's outcome and its complete decision log (pinned prefix included),
// which a Script with every choice pinned replays back bit-identically.
// It refuses a log that names a policy kind no candidate has,
// candidates Baseline refuses, and a rival of a kind no candidate has.
func (r *Replayer) Counterfactual(log []Record, seq int, rival Alt) (Outcome, []Record, error) {
	if seq < 0 || seq >= len(log) {
		return Outcome{}, nil, fmt.Errorf("decision: seq %d outside log of %d decisions", seq, len(log))
	}
	a := r.newAdaptive()
	s := &core.Script{Choices: log[:seq+1], ForceAt: seq, Force: rival}
	if err := core.CheckScript(a.Candidates, s); err != nil {
		return Outcome{}, nil, err
	}
	col := &Collector{}
	a.Script, a.Sink = s, col
	if r.Naive {
		s.Choices = nil
		res, err := sim.Run(r.Cfg, a)
		if err != nil {
			return Outcome{}, nil, err
		}
		return Summarize(res), col.Records(), nil
	}
	if altsEqual(rival, log[seq].Chosen) {
		s.ForceAt = -1
	}
	var out Outcome
	err := sim.RunPooled(r.Cfg, a, func(res *sim.Result) { out = Summarize(res) })
	if err != nil {
		return Outcome{}, nil, err
	}
	return out, col.Records(), nil
}

// cfTask names one (decision, rival) replay of a Replay sweep.
type cfTask struct {
	seq   int
	rank  int
	rival Alt
}

// rivalsOf selects the top-k rivals of one record: ranked alternatives
// that name a different permutation than the chosen one.
func (r *Replayer) rivalsOf(rec *Record) []cfTask {
	k := r.TopK
	if k <= 0 {
		k = 3
	}
	var out []cfTask
	for i := range rec.Ranked {
		if len(out) == k {
			break
		}
		if altsEqual(rec.Ranked[i], rec.Chosen) {
			continue
		}
		out = append(out, cfTask{seq: rec.Seq, rank: i, rival: rec.Ranked[i]})
	}
	return out
}

// Replay evaluates the top-k rivals of every decision in the log in
// parallel and aggregates realized regret per decision point. The log
// must be the contiguous record of one run (seq 0..n-1).
func (r *Replayer) Replay(baseline Outcome, log []Record) (*Report, error) {
	var tasks []cfTask
	perDecision := make([][]int, len(log))
	for i := range log {
		if log[i].Seq != i {
			return nil, fmt.Errorf("decision: log not contiguous: record %d has seq %d", i, log[i].Seq)
		}
		for _, t := range r.rivalsOf(&log[i]) {
			perDecision[i] = append(perDecision[i], len(tasks))
			tasks = append(tasks, t)
		}
	}
	results := make([]Counterfactual, len(tasks))
	err := pool.RunErr(r.Workers, len(tasks), func(i int) error {
		t := tasks[i]
		out, _, err := r.Counterfactual(log, t.seq, t.rival)
		if err != nil {
			return fmt.Errorf("decision: counterfactual seq %d rank %d: %w", t.seq, t.rank, err)
		}
		results[i] = Counterfactual{
			Seq:       t.seq,
			Rank:      t.rank,
			Rival:     t.rival,
			Outcome:   out,
			CostDelta: out.Cost - baseline.Cost,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Baseline: baseline, Counterfactuals: len(tasks)}
	for i := range log {
		dr := DecisionRegret{
			Seq:     log[i].Seq,
			Time:    log[i].Time,
			Trigger: log[i].Trigger,
			Chosen:  log[i].Chosen,
		}
		for _, ti := range perDecision[i] {
			cf := results[ti]
			dr.Rivals = append(dr.Rivals, cf)
			if saved := -cf.CostDelta; saved > dr.Regret {
				dr.Regret = saved
			}
		}
		rep.Decisions = append(rep.Decisions, dr)
		rep.TotalRegret += dr.Regret
		rep.MaxRegret = math.Max(rep.MaxRegret, dr.Regret)
	}
	return rep, nil
}

// fmtMoney renders dollars with stable precision for tables.
func fmtMoney(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// fmtAlt renders a permutation as "bid=0.81 n=2 policy".
func fmtAlt(a Alt) string {
	return fmt.Sprintf("bid=%s n=%d %s", strconv.FormatFloat(a.Bid, 'g', -1, 64), len(a.Zones), a.Policy)
}

// WriteTable renders the per-decision regret table as aligned text.
func (rep *Report) WriteTable(w io.Writer) error {
	headers := []string{"seq", "t(h)", "trigger", "chosen", "best rival", "rival cost", "regret($)"}
	rows := make([][]string, 0, len(rep.Decisions))
	for _, d := range rep.Decisions {
		bestRival, bestCost := "-", "-"
		best := math.Inf(1)
		for _, cf := range d.Rivals {
			if cf.Outcome.Cost < best {
				best = cf.Outcome.Cost
				bestRival = fmtAlt(cf.Rival)
				bestCost = fmtMoney(cf.Outcome.Cost)
			}
		}
		rows = append(rows, []string{
			strconv.Itoa(d.Seq),
			strconv.FormatFloat(float64(d.Time)/float64(trace.Hour), 'f', 2, 64),
			d.Trigger,
			fmtAlt(d.Chosen),
			bestRival,
			bestCost,
			fmtMoney(d.Regret),
		})
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nbaseline cost %s  counterfactuals %d  max regret %s  total regret %s\n",
		fmtMoney(rep.Baseline.Cost), rep.Counterfactuals, fmtMoney(rep.MaxRegret), fmtMoney(rep.TotalRegret))
	return err
}

// WriteCSV emits one row per counterfactual: the artifact form of the
// regret report.
func (rep *Report) WriteCSV(w io.Writer) error {
	headers := []string{
		"seq", "time", "trigger",
		"chosen_bid", "chosen_zones", "chosen_policy", "chosen_predicted_cost",
		"rival_rank", "rival_bid", "rival_zones", "rival_policy", "rival_predicted_cost",
		"baseline_cost", "counterfactual_cost", "cost_delta", "decision_regret",
	}
	var rows [][]string
	zoneStr := func(zs []int) string {
		s := ""
		for i, z := range zs {
			if i > 0 {
				s += "+"
			}
			s += strconv.Itoa(z)
		}
		return s
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, d := range rep.Decisions {
		for _, cf := range d.Rivals {
			rows = append(rows, []string{
				strconv.Itoa(d.Seq),
				strconv.FormatInt(d.Time, 10),
				d.Trigger,
				g(d.Chosen.Bid), zoneStr(d.Chosen.Zones), d.Chosen.Policy, g(d.Chosen.Cost),
				strconv.Itoa(cf.Rank),
				g(cf.Rival.Bid), zoneStr(cf.Rival.Zones), cf.Rival.Policy, g(cf.Rival.Cost),
				g(rep.Baseline.Cost), g(cf.Outcome.Cost), g(cf.CostDelta), g(d.Regret),
			})
		}
	}
	return report.WriteCSV(w, headers, rows)
}
