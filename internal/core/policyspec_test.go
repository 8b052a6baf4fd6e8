package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/trace"
)

// TestParsePolicyCanonical pins the descriptor grammar: bare names and
// default parameters print as the bare name, other parameters print in
// canonical order and unit, and malformed descriptors are refused.
func TestParsePolicyCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"periodic":                     "periodic",
		"markov-daly":                  "markov-daly",
		"markov-daly:span=48h":         "markov-daly",
		"markov-daly:order=2":          "markov-daly",
		"markov-daly:span=360m":        "markov-daly:span=6h0m0s",
		"markov-daly:order=1:span=90m": "markov-daly:span=1h30m0s:order=1",
		"markov-daly:span=21700s":      "markov-daly:span=6h1m40s",
		"large-bid":                    "large-bid",
		"large-bid:L=0.81":             "large-bid",
		"large-bid:L=inf":              "large-bid:L=+Inf",
		"large-bid:L=2.40":             "large-bid:L=2.4",
		"changepoint":                  "changepoint",
	} {
		pol, err := ParsePolicy(in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", in, err)
			continue
		}
		if got := pol.String(); got != want {
			t.Errorf("ParsePolicy(%q) prints %q, want %q", in, got, want)
		}
	}
	for _, in := range []string{
		"", "adaptive", "Periodic", "periodic:", "periodic:span=6h",
		"markov-daly:span=0h", "markov-daly:span=6", "markov-daly:span=-6h", "markov-daly:span=1.5s",
		"markov-daly:order=3", "markov-daly:span=6h:span=7h", "markov-daly:L=1",
		"large-bid:L=0", "large-bid:L=-1", "large-bid:L=nan", "large-bid:L=1e400", "changepoint:drift=0.1",
	} {
		if pol, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q) = %q, want an error", in, pol)
		}
	}
}

// TestPolicySpecNew checks that New hands every parameter to the
// instance, and that a descriptor prints only its own family's
// parameters.
func TestPolicySpecNew(t *testing.T) {
	m := PolicySpec{Family: FamilyMarkovDaly, HistorySpan: 6 * trace.Hour, FirstOrder: true}.New().(*MarkovDaly)
	if m.HistorySpan != 6*trace.Hour || m.HigherOrder {
		t.Errorf("markov-daly:span=6h:order=1 built span %d, higher order %v", m.HistorySpan, m.HigherOrder)
	}
	if d := (PolicySpec{Family: FamilyMarkovDaly}).New().(*MarkovDaly); d.HistorySpan != markov.DefaultHistory || !d.HigherOrder {
		t.Errorf("default markov-daly built span %d, higher order %v", d.HistorySpan, d.HigherOrder)
	}
	if lb := (PolicySpec{Family: FamilyLargeBid}).New().(*LargeBid); lb.L != DefaultLargeBidL {
		t.Errorf("default large-bid built L %g", lb.L)
	}
	if lb := (PolicySpec{Family: FamilyLargeBid, L: math.Inf(1)}).New().(*LargeBid); !math.IsInf(lb.L, 1) {
		t.Errorf("naive large-bid built L %g", lb.L)
	}
	for fam := range PolicyFamily(len(familyNames)) {
		if got := (PolicySpec{Family: fam}).New().Name(); got != fam.String() {
			t.Errorf("family %s builds a policy named %q", fam, got)
		}
	}
	if (PolicySpec{Family: FamilyPeriodic, L: 3}).String() != "periodic" {
		t.Error("another family's parameter reached the descriptor")
	}
}

// FuzzParsePolicy is the descriptor's round trip: whatever parses
// prints, and re-parses, to an equal value, and String is a fixed
// point.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{
		"periodic", "markov-daly:span=6h:order=1", "markov-daly:order=1:span=90m", "markov-daly:span=21700s",
		"large-bid:L=inf", "large-bid:L=0x1p-3", "large-bid:L=2.40", "edge", "markov-daly:span=2562047h47m16s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		pol, err := ParsePolicy(in)
		if err != nil {
			return
		}
		out := pol.String()
		again, err := ParsePolicy(out)
		if err != nil {
			t.Fatalf("%q parses, but its String %q does not: %v", in, out, err)
		}
		if again != pol {
			t.Fatalf("%q parses to %+v, its String %q to %+v", in, pol, out, again)
		}
		if again.String() != out {
			t.Fatalf("String is not a fixed point: %q, then %q", out, again.String())
		}
		if !strings.HasPrefix(in, pol.Family.String()) {
			t.Fatalf("%q parsed as family %s", in, pol.Family)
		}
	})
}
