package markov

import (
	"math"
	"math/rand"
	"testing"
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

// TestWindowFitterMatchesFit pins WindowFitter.Fit to Fit over probed
// windows of every kind — whole column, prefixes, sliding forward,
// repeated, backwards (the recount path), jumping past the old window —
// cycling one reuse model through fits of different state counts,
// including a wide-alphabet column that exercises the sort-and-compact
// fallback past the insertion cap.
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
		wf.Init(col, 300)
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
		if _, err := wf.Fit(0, n+1, nil); err == nil {
			t.Fatalf("column %d: window past the column accepted", ci)
		}
	}
	var zero WindowFitter
	zero.Init([]float64{0.1}, 0)
	if _, err := zero.Fit(0, 1, nil); err == nil {
		t.Fatalf("non-positive step accepted")
	}
}

// TestWindowFitterRandomWindows drives one fitter through random
// sequences of windows — forward slides, backward moves, disjoint jumps
// and empty windows — while the column grows by Append and the caller
// forgets behind a rising mark, and checks every fit against the
// reference bit for bit and every fit behind the mark for an error.
func TestWindowFitterRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		alphabet := 1 + rng.Intn(12)
		if trial%10 == 9 {
			alphabet = 100 // wider than the insertion cap
		}
		full := rawPrices(rng, 200+rng.Intn(200), alphabet)
		n := 1 + rng.Intn(len(full)/2)
		var wf WindowFitter
		wf.Init(full[:n], 300)
		var reuse *Model
		for step := 0; step < 60; step++ {
			if n < len(full) && rng.Intn(3) == 0 {
				for m := n + rng.Intn(len(full)-n+1); n < m; n++ {
					wf.Append(full[n])
				}
			}
			if rng.Intn(8) == 0 {
				wf.Forget(wf.Forgotten() + rng.Intn(n-wf.Forgotten()+1))
			}
			if keep := wf.Forgotten(); keep > 0 && rng.Intn(4) == 0 {
				if _, err := wf.Fit(rng.Intn(keep), n, nil); err == nil || err == ErrNoHistory {
					t.Fatalf("trial %d: a window behind the mark %d fitted (err %v)", trial, keep, err)
				}
			}
			keep := min(wf.Forgotten(), n-1)
			lo := keep + rng.Intn(n-keep)
			hi := lo + rng.Intn(n-lo+1)
			got, err := wf.Fit(lo, hi, reuse)
			if hi == lo {
				if err != ErrNoHistory {
					t.Fatalf("trial %d: empty window [%d, %d) error = %v", trial, lo, hi, err)
				}
				continue
			}
			if lo < wf.Forgotten() {
				if err == nil {
					t.Fatalf("trial %d: window [%d, %d) behind the mark fitted", trial, lo, hi)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: Fit(%d, %d): %v", trial, lo, hi, err)
			}
			modelsEqual(t, got, refFit(t, full[lo:hi]))
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
	wf.Init(col, 300)
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
// fitter grown by Append sample by sample (including samples that
// introduce brand-new buckets mid-stream, exercising the id remap) and
// forgetting behind its trailing windows fits every probed window
// bit-identically to a fresh Init over the grown column — and to the
// reference — while it holds at most twice the trailing span's ids.
func TestWindowFitterAppendMatchesInit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := rawPrices(rng, 400, 10)
	// Splice in late-arriving novel values so Append's insertState path
	// runs after warm-up.
	full[250] = 9.95
	full[300] = 0.001
	full[399] = 7.77

	const span = 60
	var inc WindowFitter
	inc.Init(full[:3], 300)
	var reuse *Model
	for n := 4; n <= len(full); n++ {
		inc.Append(full[n-1])
		if inc.Len() != n {
			t.Fatalf("Len = %d after %d samples", inc.Len(), n)
		}
		lo := max(0, n-span)
		inc.Forget(lo)
		if inc.Retained() > 2*span+1 {
			t.Fatalf("holds %d ids for a %d-sample trailing window", inc.Retained(), span)
		}
		if n%37 != 0 && n != len(full) {
			continue
		}
		var fresh WindowFitter
		fresh.Init(full[:n], 300)
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
	if inc.Retained() == inc.Len() {
		t.Fatal("the fitter never dropped a forgotten id")
	}
}

// FuzzWindowFitter drives a fitter over byte-derived raw prices and an
// operation sequence: the first byte sets the alphabet, each later byte
// pair either appends samples, moves the Forget mark or fits a window.
// Every fit must equal Fit(Quantize(window, 0.05)) bit for bit, and a
// fit that starts behind the mark must fail with an error rather than
// read a forgotten id.
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
		col := make([]float64, 0, len(data))
		for _, b := range data[1:] {
			col = append(col, 0.05*float64(1+int(b)%alphabet)+0.006*float64(int(b%9)-4))
		}
		// The column starts with a third of the samples.
		n := max(1, len(col)/3)
		var wf WindowFitter
		wf.Init(col[:n], 300)
		var reuse *Model
		for i := 1; i+1 < len(data); i += 2 {
			switch data[i] % 7 {
			case 0:
				for m := min(len(col), n+1+int(data[i+1])%8); n < m; n++ {
					wf.Append(col[n])
				}
				continue
			case 1:
				wf.Forget(wf.Forgotten() + int(data[i+1])%(n-wf.Forgotten()+1))
				continue
			}
			lo := int(data[i]) % n
			hi := lo + int(data[i+1])%(n-lo+1)
			got, err := wf.Fit(lo, hi, reuse)
			switch {
			case hi == lo:
				if err != ErrNoHistory {
					t.Fatalf("empty window [%d, %d) error = %v", lo, hi, err)
				}
				continue
			case lo < wf.Forgotten():
				if err == nil {
					t.Fatalf("window [%d, %d) behind the mark %d fitted", lo, hi, wf.Forgotten())
				}
				continue
			case err != nil:
				t.Fatalf("Fit(%d, %d): %v", lo, hi, err)
			}
			modelsEqual(t, got, refFit(t, col[lo:hi]))
			reuse = got
		}
	})
}
