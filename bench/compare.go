package main

import (
	"fmt"
	"io"
)

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// verdict applies the paired-runs rule to one metric. parent and change
// hold the metric's values in run order; run i of each side forms pair
// i.
//
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ, in its favour, by
//     more than the parent's own quartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unresolved: the parent's spread is wider than the bound, unless
//     every change run beats every parent run;
//   - unchanged: otherwise.
func verdict(parent, change []float64, better string, bnd float64) (string, float64) {
	sign := 1.0 // positive when the change is better
	if better == "lower" {
		sign = -1
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	winFrac := float64(wins) / float64(max(pairs, 1))
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	if pm == 0 {
		return verdictUnresolved, winFrac
	}
	gain := sign * (cm - pm)
	if pairs > 0 && winFrac >= 0.9 && gain > pq3-pq1 {
		return verdictImproved, winFrac
	}
	if -gain/pm > bnd {
		return verdictRegressed, winFrac
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && sign*(c-p) > 0
		}
	}
	if (pq3-pq1)/pm > bnd && !allBetter {
		return verdictUnresolved, winFrac
	}
	return verdictUnchanged, winFrac
}

// runCompare compares two -json files workload by workload and reports
// whether any metric regressed.
func runCompare(w io.Writer, parentPath, changePath string, s *spec) (bool, error) {
	parent, err := readRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	for _, name := range workloads {
		p, c := byWorkload(parent, name), byWorkload(change, name)
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: parent %d runs (%d failed ops), change %d runs (%d failed ops)\n",
			name, len(p), failedOps(p), len(c), failedOps(c))
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "  no runs on one side: nothing to compare\n")
			continue
		}
		for _, b := range s.EndToEnd {
			pv, cv := values(p, b.Name), values(c, b.Name)
			v, winFrac := verdict(pv, cv, b.Better, b.Bound)
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(w, "  %-18s parent %s [%s, %s]  change %s [%s, %s]  wins %.2f  %s (bound %.0f%%)\n",
				b.Name, formatValue(pm), formatValue(pq1), formatValue(pq3),
				formatValue(cm), formatValue(cq1), formatValue(cq3), winFrac, v, 100*b.Bound)
			regressed = regressed || v == verdictRegressed
		}
	}
	return regressed, nil
}

// byWorkload returns the runs of one workload, in order.
func byWorkload(runs []*Result, name string) []*Result {
	var out []*Result
	for _, r := range runs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// failedOps sums failed operations over runs.
func failedOps(runs []*Result) int64 {
	var n int64
	for _, r := range runs {
		n += r.Failed
	}
	return n
}
