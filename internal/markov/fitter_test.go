package markov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// checkFit counts the window [lo, hi) on the fitter and checks what it
// answers against the reference chain want, bit for bit: the
// WindowFitter contract is bit-identity with Fit, not approximation.
// States must equal want's, and Uptime must equal
// want.ExpectedUptimeExact at a bid below every state and at each
// state's value — every up-prefix length up to 16 and the whole chain
// — from prices below, at, between and above the states, and NaN.
func checkFit(t testing.TB, wf *WindowFitter, s *UptimeSolver, lo, hi int, want *Model) {
	t.Helper()
	n, err := wf.Count(lo, hi)
	if err != nil {
		t.Fatalf("Count(%d, %d): %v", lo, hi, err)
	}
	states := want.States
	got := wf.States(nil)
	if n != len(states) || len(got) != n {
		t.Fatalf("window [%d, %d): Count %d and %d States, want %d states", lo, hi, n, len(got), len(states))
	}
	for i := range states {
		if got[i] != states[i] { // -0 and +0 are one state, as in Fit's map
			t.Fatalf("window [%d, %d): States[%d] = %v, want %v", lo, hi, i, got[i], states[i])
		}
	}
	bids := []float64{states[0] - 0.01}
	for k := 1; k <= n; k++ {
		if k <= 16 || k == n {
			bids = append(bids, states[k-1])
		}
	}
	prices := []float64{states[0] - 0.5, states[n-1] + 0.5, math.NaN(), states[n-1]}
	for i := range min(n, 4) {
		prices = append(prices, states[i])
		if i > 0 {
			prices = append(prices, (states[i-1]+states[i])/2, states[i]-0.001)
		}
	}
	for _, bid := range bids {
		for _, p := range prices {
			g, w := wf.Uptime(s, bid, p), want.ExpectedUptimeExact(bid, p)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("window [%d, %d), bid %v, price %v: Uptime %v, want %v", lo, hi, bid, p, g, w)
			}
		}
	}
}

// quantPrices draws n samples from a small quantized alphabet.
func quantPrices(rng *rand.Rand, n, alphabet int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.05 * float64(1+rng.Intn(alphabet))
	}
	return out
}

// rawPrices draws n samples around a quantized alphabet, each off its
// bucket by up to two cents either way, so that the fitter's bucketing
// has work to do.
func rawPrices(rng *rand.Rand, n, alphabet int) []float64 {
	out := quantPrices(rng, n, alphabet)
	for i := range out {
		out[i] += 0.01 * float64(rng.Intn(5)-2)
	}
	return out
}

// refFit is the fitter's reference: Fit over the window's raw samples
// bucketed by Quantize.
func refFit(t testing.TB, raw []float64) *Model {
	t.Helper()
	m, err := Fit(Quantize(raw, 0.05), 300)
	if err != nil {
		t.Fatalf("reference Fit over %d samples: %v", len(raw), err)
	}
	return m
}

// stateView buckets a raw price column into the state view a
// WindowFitter reads, as a trace series does.
func stateView(col []float64) ([]int32, []float64) {
	return trace.NewSeries("z", 0, col).States()
}

// TestWindowFitterMatchesFit pins WindowFitter's answers to Fit over
// probed windows of every kind — whole column, prefixes, sliding
// forward, repeated, backwards (the recount path), jumping past the old
// window, reaching past the view's end (clamped to its last sample) —
// on columns of one state, of an absorbing last state and of a wide
// alphabet.
func TestWindowFitterMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	columns := [][]float64{
		rawPrices(rng, 300, 8),
		rawPrices(rng, 120, 2),
		{0.25},
		{0.10, 0.10, 0.10},
		{0.30, 0.30, 0.70},
		{0.11, 0.09, 0.12, 0.074, 0.076},
	}
	columns = append(columns, rawPrices(rng, 400, 300), quantPrices(rng, 25, 3))

	var wf WindowFitter
	var s UptimeSolver
	for ci, col := range columns {
		ids, vals := stateView(col)
		wf.Init(ids, vals, 300)
		n := len(col)
		windows := [][2]int{
			{0, n}, {0, 1}, {0, n / 2}, {0, n / 2}, {n / 4, n / 2}, {n / 3, n},
			{n / 3, n}, {0, n / 3}, {n - 1, n}, {n / 2, n}, {0, n},
		}
		for _, w := range windows {
			lo, hi := w[0], w[1]
			if hi <= lo {
				hi = lo + 1
			}
			checkFit(t, &wf, &s, lo, hi, refFit(t, col[lo:hi]))
		}
		if _, err := wf.Count(n/2, n/2); err != ErrNoHistory {
			t.Fatalf("column %d: empty window error = %v, want ErrNoHistory", ci, err)
		}
		clamped := append(append([]float64(nil), col[n/2:]...), col[n-1], col[n-1], col[n-1])
		checkFit(t, &wf, &s, n/2, n+3, refFit(t, clamped))
	}
	var zero WindowFitter
	zero.Init([]int32{0}, []float64{0.1}, 0)
	if _, err := zero.Count(0, 1); err == nil {
		t.Fatalf("non-positive step accepted")
	}
	var empty WindowFitter
	empty.Init(nil, nil, 300)
	if _, err := empty.Count(0, 1); err == nil {
		t.Fatalf("a window over an empty view counted")
	}
}

// slidingColumn is a state column that grows at the back and drops
// samples at the front in place, as an Adaptive decision window does:
// its ids are those of a Buckets over every sample it has held.
type slidingColumn struct {
	all trace.Buckets
	ids []int32
}

func (c *slidingColumn) Append(p float64) {
	c.all.Add(p)
	ids, _ := c.all.States()
	c.ids = append(c.ids, ids[len(ids)-1])
}

func (c *slidingColumn) Drop(d int) { c.ids = c.ids[:copy(c.ids, c.ids[d:])] }

func (c *slidingColumn) Len() int { return len(c.ids) }

func (c *slidingColumn) States() ([]int32, []float64) {
	_, vals := c.all.States()
	return c.ids, vals
}

// TestWindowFitterRandomWindows drives one fitter through random
// sequences of windows — forward slides, backward moves, disjoint jumps
// and empty windows — while its column grows at the back and drops
// samples at the front in place (slidingColumn), and checks every fit
// against the reference bit for bit.
func TestWindowFitterRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		alphabet := 1 + rng.Intn(12)
		if trial%10 == 9 {
			alphabet = 100
		}
		full := rawPrices(rng, 200+rng.Intn(200), alphabet)
		var col slidingColumn
		n := 1 + rng.Intn(len(full)/2)
		for _, p := range full[:n] {
			col.Append(p)
		}
		var wf WindowFitter
		ids, vals := col.States()
		wf.Init(ids, vals, 300)
		dropped := 0 // samples of full the column has dropped
		var s UptimeSolver
		for step := 0; step < 60; step++ {
			if n < len(full) && rng.Intn(3) == 0 {
				for m := n + rng.Intn(len(full)-n+1); n < m; n++ {
					col.Append(full[n])
				}
				ids, vals := col.States()
				wf.Slide(ids, vals, 0)
			}
			if rng.Intn(8) == 0 && col.Len() > 1 {
				d := rng.Intn(col.Len())
				col.Drop(d)
				dropped += d
				ids, vals := col.States()
				wf.Slide(ids, vals, d)
			}
			m := col.Len()
			lo := rng.Intn(m)
			hi := lo + rng.Intn(m-lo+1)
			if hi == lo {
				if _, err := wf.Count(lo, hi); err != ErrNoHistory {
					t.Fatalf("trial %d: empty window [%d, %d) error = %v", trial, lo, hi, err)
				}
				continue
			}
			checkFit(t, &wf, &s, lo, hi, refFit(t, full[dropped+lo:dropped+hi]))
		}
	}
}

// TestWindowFitterSignedZero checks a column holding both -0 and +0:
// they are one state, as in Fit's map, and the states compare equal.
func TestWindowFitterSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	col := []float64{0.1, negZero, 0, 0.1, 0, negZero, 0.2, 0, -0.01}
	var wf WindowFitter
	ids, vals := stateView(col)
	wf.Init(ids, vals, 300)
	var s UptimeSolver
	for _, w := range [][2]int{{0, len(col)}, {1, 5}, {2, 8}, {5, 7}, {6, 9}} {
		checkFit(t, &wf, &s, w[0], w[1], refFit(t, col[w[0]:w[1]]))
	}
}

// TestSolverMatchesExact pins WindowFitter.Uptime to
// Model.ExpectedUptimeExact bit-for-bit over random chains, from a
// current price drawn from the column, at bids below, inside and above
// the state range — +Inf singular escapes included — with one solver
// serving systems of every size.
func TestSolverMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s UptimeSolver
	var wf WindowFitter
	for trial := 0; trial < 50; trial++ {
		prices := quantPrices(rng, 50+rng.Intn(200), 1+rng.Intn(10))
		ids, vals := stateView(prices)
		wf.Init(ids, vals, 300)
		lo := rng.Intn(len(prices) / 2)
		if _, err := wf.Count(lo, len(prices)); err != nil {
			t.Fatalf("Count: %v", err)
		}
		m := refFit(t, prices[lo:])
		cur := prices[rng.Intn(len(prices))]
		for _, bid := range []float64{0.01, cur, cur + 0.05, 0.05 * 11, 2.0} {
			want := m.ExpectedUptimeExact(bid, cur)
			if got := wf.Uptime(&s, bid, cur); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d bid %v: got %v, want %v", trial, bid, got, want)
			}
		}
	}
}

// TestWindowFitterAppendMatchesInit pins the streaming contract: a
// fitter whose column grows sample by sample (including samples that
// bring brand-new states mid-stream) and that fits trailing windows
// matches, on every probed window, a fresh Init over the grown column —
// and the reference — while it counts over no more slots than two
// consecutive windows have ever held states.
func TestWindowFitterAppendMatchesInit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := rawPrices(rng, 400, 10)
	// Splice in late-arriving novel values so new states arrive after
	// warm-up.
	full[250] = 9.95
	full[300] = 0.001
	full[399] = 7.77

	const span = 60
	var col slidingColumn
	for _, p := range full[:3] {
		col.Append(p)
	}
	var inc WindowFitter
	ids, vals := col.States()
	inc.Init(ids, vals, 300)
	var s UptimeSolver
	most := 0 // the most states two consecutive windows held
	for n := 4; n <= len(full); n++ {
		col.Append(full[n-1])
		ids, vals := col.States()
		inc.Slide(ids, vals, 0)
		if inc.Len() != n {
			t.Fatalf("Len = %d after %d samples", inc.Len(), n)
		}
		lo := max(0, n-span)
		if _, err := inc.Count(lo, n); err != nil {
			t.Fatalf("inc.Count(%d, %d): %v", lo, n, err)
		}
		most = max(most, distinct(full[max(0, lo-1):n]))
		if inc.Slots() > most {
			t.Fatalf("n=%d: %d slots, but two consecutive windows held at most %d states", n, inc.Slots(), most)
		}
		if n%37 != 0 && n != len(full) {
			continue
		}
		var fresh WindowFitter
		fresh.Init(ids, vals, 300)
		for _, w := range [][2]int{{lo, lo + 1}, {lo, n}, {(lo + n) / 2, n}, {n - 1, n}} {
			want := refFit(t, full[w[0]:w[1]])
			checkFit(t, &fresh, &s, w[0], w[1], want)
			checkFit(t, &inc, &s, w[0], w[1], want)
		}
	}
}

// distinct counts the states of a raw price column.
func distinct(col []float64) int {
	_, vals := stateView(col)
	return len(vals)
}

// FuzzWindowFitter drives a fitter over byte-derived raw prices and an
// operation sequence: the first byte sets the alphabet, each later byte
// pair either appends samples to the column, drops samples from its
// front in place, or counts a window. Every window's States and Uptime
// must equal those of Fit(Quantize(window, 0.05)) bit for bit
// (checkFit: every up-prefix length, bids below the lowest state,
// prices outside the state range). The seeds include a constant
// column (a singular system: +Inf) and windows ending on a state seen
// only there (an absorbing last state).
func FuzzWindowFitter(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 200, 3})
	f.Add([]byte{255, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 99})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{7, 5, 9, 11, 40, 3, 7, 13, 2, 15, 1, 1, 8, 22, 5})
	f.Add([]byte{9, 2, 2, 2, 2, 2, 7, 7, 2, 2, 7, 4, 2, 2, 2, 2, 2, 2, 3, 5})
	f.Add([]byte{20, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 9, 4, 12, 2, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 1024 {
			return
		}
		alphabet := 1 + int(data[0])
		// Raw prices land anywhere in their bucket: a byte picks the
		// bucket and its low bits an offset of up to ±2.4 cents.
		full := make([]float64, 0, len(data))
		for _, b := range data[1:] {
			full = append(full, 0.05*float64(1+int(b)%alphabet)+0.006*float64(int(b%9)-4))
		}
		// The column starts with a third of the samples.
		n := max(1, len(full)/3)
		var col slidingColumn
		for _, p := range full[:n] {
			col.Append(p)
		}
		var wf WindowFitter
		ids, vals := col.States()
		wf.Init(ids, vals, 300)
		dropped := 0
		var s UptimeSolver
		for i := 1; i+1 < len(data); i += 2 {
			switch data[i] % 7 {
			case 0:
				for m := min(len(full), n+1+int(data[i+1])%8); n < m; n++ {
					col.Append(full[n])
				}
				ids, vals := col.States()
				wf.Slide(ids, vals, 0)
				continue
			case 1:
				d := int(data[i+1]) % col.Len() // keep a sample
				col.Drop(d)
				dropped += d
				ids, vals := col.States()
				wf.Slide(ids, vals, d)
				continue
			}
			m := col.Len()
			lo := int(data[i]) % m
			hi := lo + int(data[i+1])%(m-lo+1)
			if hi == lo {
				if _, err := wf.Count(lo, hi); err != ErrNoHistory {
					t.Fatalf("empty window [%d, %d) error = %v", lo, hi, err)
				}
				continue
			}
			checkFit(t, &wf, &s, lo, hi, refFit(t, full[dropped+lo:dropped+hi]))
		}
	})
}
