// Package market implements Amazon EC2 billing mechanics as of the
// paper's era (§2.1):
//
//   - Hour-boundary pricing: each instance-hour is charged at the spot
//     price in force at the start of that hour, not the bid and not any
//     intra-hour price the market later quotes.
//   - Partial-hour usage: an hour cut short because EC2 terminated the
//     instance (spot price exceeded the bid) is free; an hour cut short
//     by the user is charged in full.
//   - On-demand instances are charged $2.40/hour (CC2) per started hour.
//
// It also models the spot-instance queuing delay the authors measured
// (mean 299.6 s, best 143 s, worst 880 s).
package market

import (
	"fmt"

	"repro/internal/trace"
)

// OnDemandRate is the fixed on-demand price of a CC2 instance in
// dollars per hour.
const OnDemandRate = 2.40

// TerminationCause says who ended an instance.
type TerminationCause int

// Termination causes.
const (
	// ByProvider: EC2 killed the instance because the spot price moved
	// above the bid. The in-progress hour is free.
	ByProvider TerminationCause = iota
	// ByUser: the user released the instance (job finished, manual
	// stop, policy switch). The in-progress hour is charged in full.
	ByUser
)

// String implements fmt.Stringer.
func (c TerminationCause) String() string {
	switch c {
	case ByProvider:
		return "provider"
	case ByUser:
		return "user"
	default:
		return "unknown"
	}
}

// Entry is one charged instance-hour in a Ledger.
type Entry struct {
	// Zone is the availability zone, or "on-demand".
	Zone string
	// HourStart is when the charged hour began.
	HourStart int64
	// Rate is the dollars charged for this hour.
	Rate float64
	// OnDemand marks on-demand hours.
	OnDemand bool
	// Partial marks an hour the instance did not run to completion but
	// was still charged (user-side termination).
	Partial bool
}

// Ledger accumulates every charge of an experiment run.
type Ledger struct {
	Entries []Entry
	total   float64
}

// Add appends a charge.
func (l *Ledger) Add(e Entry) {
	l.Entries = append(l.Entries, e)
	l.total += e.Rate
}

// Total returns the accumulated cost in dollars.
func (l *Ledger) Total() float64 { return l.total }

// Clone returns a deep copy whose entry slice shares nothing with the
// receiver; callers holding a pooled machine's result use it to keep
// the ledger past the machine's release.
func (l *Ledger) Clone() Ledger {
	return Ledger{Entries: append([]Entry(nil), l.Entries...), total: l.total}
}

// Reset empties the ledger in place, keeping the entry slice's backing
// array for reuse. Any previously shared copy of the Ledger struct
// aliases that array, so reset only ledgers whose results have been
// consumed (the sim machine pool's contract).
func (l *Ledger) Reset() {
	l.Entries = l.Entries[:0]
	l.total = 0
}

// SpotTotal returns the cost of spot hours only.
func (l *Ledger) SpotTotal() float64 {
	var t float64
	for _, e := range l.Entries {
		if !e.OnDemand {
			t += e.Rate
		}
	}
	return t
}

// OnDemandTotal returns the cost of on-demand hours only.
func (l *Ledger) OnDemandTotal() float64 { return l.total - l.SpotTotal() }

// Meter tracks billing for one running instance. Open it when the
// instance starts, Advance it as simulated time passes (committing each
// completed hour at its hour-start rate), and Close it when the
// instance stops.
type Meter struct {
	zone      string
	onDemand  bool
	hourStart int64
	hourRate  float64
	closed    bool
}

// OpenSpotMeter starts billing a spot instance at time t whose first
// hour is charged at the spot price rate in force at t.
func OpenSpotMeter(zone string, t int64, rate float64) *Meter {
	return &Meter{zone: zone, hourStart: t, hourRate: rate}
}

// OpenOnDemandMeter starts billing an on-demand instance at time t.
func OpenOnDemandMeter(t int64) *Meter {
	return &Meter{zone: "on-demand", onDemand: true, hourStart: t, hourRate: OnDemandRate}
}

// HourStart returns the start of the currently accruing billing hour.
func (m *Meter) HourStart() int64 { return m.hourStart }

// Advance commits every billing hour completed by time now to the
// ledger. rateAt supplies the spot price at an hour boundary and is
// ignored for on-demand meters. It panics if the meter is closed or
// time runs backwards, both of which indicate simulator bugs.
func (m *Meter) Advance(now int64, rateAt func(int64) float64, ledger *Ledger) {
	if m.closed {
		panic("market: Advance on a closed meter")
	}
	if now < m.hourStart {
		panic(fmt.Sprintf("market: time moved backwards: now %d < hour start %d", now, m.hourStart))
	}
	for now >= m.hourStart+trace.Hour {
		ledger.Add(Entry{
			Zone:      m.zone,
			HourStart: m.hourStart,
			Rate:      m.hourRate,
			OnDemand:  m.onDemand,
		})
		m.hourStart += trace.Hour
		if m.onDemand {
			m.hourRate = OnDemandRate
		} else {
			m.hourRate = rateAt(m.hourStart)
		}
	}
}

// Close stops billing at time now. A provider-side termination leaves
// the in-progress hour unbilled; a user-side termination charges it in
// full, marked Partial when the hour had time remaining. On-demand
// instances are always user-terminated and always pay the started hour.
func (m *Meter) Close(now int64, cause TerminationCause, rateAt func(int64) float64, ledger *Ledger) {
	if m.closed {
		panic("market: Close on a closed meter")
	}
	m.Advance(now, rateAt, ledger)
	m.closed = true
	if now == m.hourStart {
		return // the next hour never started
	}
	if !m.onDemand && cause == ByProvider {
		return // free partial hour
	}
	ledger.Add(Entry{
		Zone:      m.zone,
		HourStart: m.hourStart,
		Rate:      m.hourRate,
		OnDemand:  m.onDemand,
		Partial:   now < m.hourStart+trace.Hour,
	})
}
