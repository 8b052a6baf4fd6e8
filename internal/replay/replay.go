// Package replay archives experiment outcomes as JSON so sweeps can be
// run once and re-analysed many times (different aggregations,
// significance tests, plots) without re-simulating.
package replay

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Record is one archived run with the parameters that produced it.
type Record struct {
	// Experiment coordinates.
	Regime string  `json:"regime"`
	Slack  float64 `json:"slack"`
	Tc     int64   `json:"tc"`
	Policy string  `json:"policy"`
	Bid    float64 `json:"bid"`
	N      int     `json:"n"`
	Window int     `json:"window"`
	// Outcome.
	Cost             float64 `json:"cost"`
	SpotCost         float64 `json:"spot_cost"`
	OnDemandCost     float64 `json:"od_cost"`
	Completed        bool    `json:"completed"`
	DeadlineMet      bool    `json:"deadline_met"`
	SwitchedOnDemand bool    `json:"switched_od"`
	FinishTime       int64   `json:"finish_time"`
	Checkpoints      int     `json:"checkpoints"`
	Restarts         int     `json:"restarts"`
	ProviderKills    int     `json:"kills"`
}

// FromResult builds a record from a run result plus its coordinates.
func FromResult(res *sim.Result, regime string, slack float64, tc int64, bid float64, n, window int) Record {
	return Record{
		Regime: regime, Slack: slack, Tc: tc,
		Policy: res.Policy, Bid: bid, N: n, Window: window,
		Cost: res.Cost, SpotCost: res.SpotCost, OnDemandCost: res.OnDemandCost,
		Completed: res.Completed, DeadlineMet: res.DeadlineMet,
		SwitchedOnDemand: res.SwitchedOnDemand, FinishTime: res.FinishTime,
		Checkpoints: res.Checkpoints, Restarts: res.Restarts, ProviderKills: res.ProviderKills,
	}
}

// Archive is a set of records with free-form provenance metadata
// (suite seed, window count, code version, …).
type Archive struct {
	Meta    map[string]string `json:"meta,omitempty"`
	Records []Record          `json:"records"`
}

// Add appends a record.
func (a *Archive) Add(r Record) { a.Records = append(a.Records, r) }

// Write encodes the archive as JSON.
func (a *Archive) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a)
}

// Read decodes an archive.
func Read(r io.Reader) (*Archive, error) {
	var a Archive
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("replay: decoding archive: %w", err)
	}
	return &a, nil
}

// Costs extracts the cost column of the matching records.
func (a *Archive) Costs(keep func(Record) bool) []float64 {
	var out []float64
	for _, r := range a.Records {
		if keep(r) {
			out = append(out, r.Cost)
		}
	}
	return out
}

// Deadlines reports how many matching records missed their deadline
// (which must always be zero for guard-enabled runs — a quick archive
// integrity check).
func (a *Archive) Deadlines(keep func(Record) bool) (met, missed int) {
	for _, r := range a.Records {
		if !keep(r) {
			continue
		}
		if r.DeadlineMet {
			met++
		} else {
			missed++
		}
	}
	return met, missed
}
