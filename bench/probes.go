package main

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/daly"
	"repro/internal/markov"
	"repro/internal/quote"
	"repro/internal/trace"
)

// Unit-cost probes: public functions below the evaluator's eval.sweep
// span, called directly on the workload's own inputs in the traced run
// and reported apart. Their costs overlap the sweep and each other, so
// they are not summed into the layer table.

// probeReps is how many times each probe repeats.
const probeReps = 20

// microseconds returns the time since t in microseconds.
func microseconds(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// coldProbes times the model-building steps a quote-cold miss pays, on
// the 48-hour window every quote-cold request replays over: a BidIndex
// build per (zone, bid), a quantized chain fit per zone (as Markov-Daly
// fits it), the expected-uptime solve per (zone, bid) and Daly's
// optimal interval on that uptime.
func coldProbes(res *Result, set *trace.Set) {
	hist, _, err := (&quote.StaticSource{Set: set}).History(context.Background(), 48*trace.Hour)
	if err != nil {
		res.check("probe history window", err)
		return
	}
	cols := trace.NewColumns(hist)
	bids := core.BidGrid()
	var build, fit, uptime, dalyNs []float64
	sink := 0.0
	for rep := 0; rep < probeReps; rep++ {
		for z := 0; z < hist.NumZones(); z++ {
			for _, bid := range bids {
				var bi trace.BidIndex
				t := time.Now()
				bi.Build(cols, z, bid)
				build = append(build, microseconds(t))
			}
			prices := hist.Series[z].Prices
			t := time.Now()
			m, err := markov.Fit(markov.Quantize(prices, 0.05), hist.Step())
			fit = append(fit, microseconds(t))
			if err != nil {
				continue
			}
			for _, bid := range bids {
				t := time.Now()
				u := m.ExpectedUptime(bid, prices[len(prices)-1])
				uptime = append(uptime, microseconds(t))
				const batch = 1000 // one call takes less than a clock read
				t = time.Now()
				for k := 0; k < batch; k++ {
					sink += daly.Optimal(float64(core.DefaultCheckpointCost), u+float64(k))
				}
				dalyNs = append(dalyNs, float64(time.Since(t))/batch)
			}
		}
	}
	_ = sink
	res.layer("trace.bidindex_build_us", pct(sorted(build), 0.5), len(build))
	res.layer("markov.fit_us", pct(sorted(fit), 0.5), len(fit))
	res.layer("markov.uptime_us", pct(sorted(uptime), 0.5), len(uptime))
	res.layer("daly.optimal_ns", pct(sorted(dalyNs), 0.5), len(dalyNs))
}

// hotProbes times the two per-request costs a quote-hot cache hit pays
// besides routing: digesting the 6-hour history window and encoding a
// plan table, the latter on the answers the run sampled.
func hotProbes(res *Result, set *trace.Set, samples []replaySample) {
	win, _, err := (&quote.StaticSource{Set: set}).History(context.Background(), 6*trace.Hour)
	if err != nil {
		res.check("probe history window", err)
		return
	}
	var digest, encode []float64
	for rep := 0; rep < probeReps; rep++ {
		t := time.Now()
		quote.Digest(win)
		digest = append(digest, microseconds(t))
	}
	for i := 0; i < probeReps && i < len(samples); i++ {
		var resp quote.Response
		if err := json.Unmarshal(samples[i].body, &resp); err != nil {
			res.check("probe answer decodes", err)
			return
		}
		t := time.Now()
		if _, err := json.Marshal(&resp); err != nil {
			res.check("probe answer encodes", err)
			return
		}
		encode = append(encode, microseconds(t))
	}
	res.layer("quote.digest_us", pct(sorted(digest), 0.5), len(digest))
	res.layer("quote.encode_us", pct(sorted(encode), 0.5), len(encode))
}
