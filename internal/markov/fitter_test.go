package markov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// modelsEqual compares two models bit-for-bit: the WindowFitter
// contract is bit-identity with Fit, not approximation.
func modelsEqual(t *testing.T, got, want *Model) {
	t.Helper()
	if got.Step != want.Step || got.Horizon != want.Horizon {
		t.Fatalf("step/horizon = %d/%d, want %d/%d", got.Step, got.Horizon, want.Step, want.Horizon)
	}
	if len(got.States) != len(want.States) {
		t.Fatalf("state count = %d, want %d", len(got.States), len(want.States))
	}
	for i := range want.States {
		if got.States[i] != want.States[i] {
			t.Fatalf("States[%d] = %v, want %v", i, got.States[i], want.States[i])
		}
	}
	if len(got.Trans) != len(want.Trans) {
		t.Fatalf("row count = %d, want %d", len(got.Trans), len(want.Trans))
	}
	for i := range want.Trans {
		if len(got.Trans[i]) != len(want.Trans[i]) {
			t.Fatalf("row %d length = %d, want %d", i, len(got.Trans[i]), len(want.Trans[i]))
		}
		for j := range want.Trans[i] {
			if got.Trans[i][j] != want.Trans[i][j] {
				t.Fatalf("Trans[%d][%d] = %v, want %v", i, j, got.Trans[i][j], want.Trans[i][j])
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

// TestWindowFitterMatchesFit pins WindowFitter.Fit to Fit over probed
// windows of every kind — whole column, prefixes, sliding forward,
// repeated, backwards (the recount path), jumping past the old window,
// reaching past the view's end (clamped to its last sample) — cycling
// one reuse model through fits of different state counts, including a
// wide-alphabet column.
func TestWindowFitterMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	columns := [][]float64{
		rawPrices(rng, 300, 8),
		rawPrices(rng, 120, 2),
		{0.25},
		{0.10, 0.10, 0.10},
		{0.11, 0.09, 0.12, 0.074, 0.076},
	}
	columns = append(columns, rawPrices(rng, 400, 300), quantPrices(rng, 25, 3))

	var wf WindowFitter
	var reuse *Model
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
			got, err := wf.Fit(lo, hi, reuse)
			if err != nil {
				t.Fatalf("column %d: WindowFitter.Fit(%d, %d): %v", ci, lo, hi, err)
			}
			modelsEqual(t, got, refFit(t, col[lo:hi]))
			reuse = got // recycle into the next fit
		}
		if _, err := wf.Fit(n/2, n/2, nil); err != ErrNoHistory {
			t.Fatalf("column %d: empty window error = %v, want ErrNoHistory", ci, err)
		}
		got, err := wf.Fit(n/2, n+3, nil)
		if err != nil {
			t.Fatalf("column %d: window past the view: %v", ci, err)
		}
		clamped := append(append([]float64(nil), col[n/2:]...), col[n-1], col[n-1], col[n-1])
		modelsEqual(t, got, refFit(t, clamped))
	}
	var zero WindowFitter
	zero.Init([]int32{0}, []float64{0.1}, 0)
	if _, err := zero.Fit(0, 1, nil); err == nil {
		t.Fatalf("non-positive step accepted")
	}
	var empty WindowFitter
	empty.Init(nil, nil, 300)
	if _, err := empty.Fit(0, 1, nil); err == nil {
		t.Fatalf("a window over an empty view fitted")
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
		var reuse *Model
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
			got, err := wf.Fit(lo, hi, reuse)
			if hi == lo {
				if err != ErrNoHistory {
					t.Fatalf("trial %d: empty window [%d, %d) error = %v", trial, lo, hi, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: Fit(%d, %d): %v", trial, lo, hi, err)
			}
			modelsEqual(t, got, refFit(t, full[dropped+lo:dropped+hi]))
			reuse = got
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
	for _, w := range [][2]int{{0, len(col)}, {1, 5}, {2, 8}, {5, 7}, {6, 9}} {
		got, err := wf.Fit(w[0], w[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		modelsEqual(t, got, refFit(t, col[w[0]:w[1]]))
	}
}

// TestSolverMatchesExact pins UptimeSolver.ExpectedUptime to
// Model.ExpectedUptimeExact bit-for-bit over random chains, bids below,
// inside and above the state range — +Inf singular escapes included.
func TestSolverMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s UptimeSolver
	for trial := 0; trial < 50; trial++ {
		prices := quantPrices(rng, 50+rng.Intn(200), 1+rng.Intn(10))
		m, err := Fit(prices, 300)
		if err != nil {
			t.Fatalf("Fit: %v", err)
		}
		cur := prices[rng.Intn(len(prices))]
		for _, bid := range []float64{0.01, cur, cur + 0.05, 0.05 * 11, 2.0} {
			want := m.ExpectedUptimeExact(bid, cur)
			got := s.ExpectedUptime(m, bid, cur)
			if math.IsInf(want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("trial %d bid %v: got %v, want +Inf", trial, bid, got)
				}
				continue
			}
			if got != want {
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
	var reuse *Model
	most := 0 // the most states two consecutive windows held
	for n := 4; n <= len(full); n++ {
		col.Append(full[n-1])
		ids, vals := col.States()
		inc.Slide(ids, vals, 0)
		if inc.Len() != n {
			t.Fatalf("Len = %d after %d samples", inc.Len(), n)
		}
		lo := max(0, n-span)
		got, err := inc.Fit(lo, n, reuse)
		if err != nil {
			t.Fatalf("inc.Fit(%d, %d): %v", lo, n, err)
		}
		reuse = got
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
			want, err := fresh.Fit(w[0], w[1], nil)
			if err != nil {
				t.Fatalf("fresh.Fit(%d, %d) at n=%d: %v", w[0], w[1], n, err)
			}
			got, err := inc.Fit(w[0], w[1], reuse)
			if err != nil {
				t.Fatalf("inc.Fit(%d, %d) at n=%d: %v", w[0], w[1], n, err)
			}
			modelsEqual(t, got, want)
			modelsEqual(t, got, refFit(t, full[w[0]:w[1]]))
			reuse = got
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
// front in place, or fits a window. Every fit must equal
// Fit(Quantize(window, 0.05)) bit for bit.
func FuzzWindowFitter(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 200, 3})
	f.Add([]byte{255, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 99})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{7, 5, 9, 11, 40, 3, 7, 13, 2, 15, 1, 1, 8, 22, 5})
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
		var reuse *Model
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
			got, err := wf.Fit(lo, hi, reuse)
			switch {
			case hi == lo:
				if err != ErrNoHistory {
					t.Fatalf("empty window [%d, %d) error = %v", lo, hi, err)
				}
				continue
			case err != nil:
				t.Fatalf("Fit(%d, %d): %v", lo, hi, err)
			}
			modelsEqual(t, got, refFit(t, full[dropped+lo:dropped+hi]))
			reuse = got
		}
	})
}
