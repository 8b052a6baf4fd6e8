package decision

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Genome is one point of the Adaptive hyperparameter space the tuner
// searches: the bid grid (lo/hi/step in dollars), the estimation-window
// length, the near-tie headroom and churn-damping thresholds, and the
// redundancy bound.
type Genome struct {
	// BidLo, BidHi and BidStep define the candidate bid grid in dollars
	// (inclusive, stepped in whole cents).
	BidLo   float64 `json:"bid_lo"`
	BidHi   float64 `json:"bid_hi"`
	BidStep float64 `json:"bid_step"`
	// WindowHours is the trailing estimation window in hours.
	WindowHours int `json:"window_hours"`
	// Headroom and Churn are the Adaptive selection thresholds.
	Headroom float64 `json:"headroom"`
	Churn    float64 `json:"churn"`
	// MaxZones bounds the redundancy degree N.
	MaxZones int `json:"max_zones"`
}

// DefaultGenome returns the paper's Adaptive settings: the $0.27–$3.07
// step-$0.20 bid grid, a 12-hour window, 3% headroom, 2% churn
// tolerance and up to 3 zones. Its Adaptive() is behavior-identical to
// core.NewAdaptive()'s defaults, which anchors the tuner's "no worse
// than default" guarantee.
func DefaultGenome() Genome {
	return Genome{BidLo: 0.27, BidHi: 3.07, BidStep: 0.20, WindowHours: 12, Headroom: 0.03, Churn: 0.02, MaxZones: 3}
}

// Bids materializes the genome's bid grid, stepping in integer cents to
// avoid float accumulation drift (the default genome reproduces
// core.BidGrid exactly). The grid is capped at 64 bids.
func (g Genome) Bids() []float64 {
	lo := int(math.Round(g.BidLo * 100))
	hi := int(math.Round(g.BidHi * 100))
	step := int(math.Round(g.BidStep * 100))
	if step <= 0 {
		step = 20
	}
	if hi < lo {
		hi = lo
	}
	var out []float64
	for c := lo; c <= hi && len(out) < 64; c += step {
		out = append(out, float64(c)/100)
	}
	return out
}

// Adaptive builds a fresh strategy configured by the genome.
func (g Genome) Adaptive() *core.Adaptive {
	return &core.Adaptive{
		Bids:             g.Bids(),
		MaxZones:         g.MaxZones,
		EstimationWindow: int64(g.WindowHours) * trace.Hour,
		Headroom:         g.Headroom,
		Churn:            g.Churn,
	}
}

// Key returns the genome's canonical identity used for evaluation
// caching and deterministic tie-breaking.
func (g Genome) Key() string {
	return fmt.Sprintf("b%g-%g-%g|w%d|h%g|c%g|z%d",
		g.BidLo, g.BidHi, g.BidStep, g.WindowHours, g.Headroom, g.Churn, g.MaxZones)
}

// clamp normalizes the genome into the searchable box: bids in whole
// cents within sane market bounds, window/zones bounded, thresholds in
// (0, 0.2].
func (g Genome) clamp() Genome {
	cents := func(v, lo, hi float64) float64 {
		c := math.Round(v*100) / 100
		return math.Min(hi, math.Max(lo, c))
	}
	frac := func(v, lo, hi float64) float64 {
		f := math.Round(v*1e4) / 1e4
		return math.Min(hi, math.Max(lo, f))
	}
	g.BidStep = cents(g.BidStep, 0.05, 1.00)
	g.BidLo = cents(g.BidLo, 0.07, 2.47)
	g.BidHi = cents(g.BidHi, g.BidLo+g.BidStep, 4.07)
	if g.WindowHours < 2 {
		g.WindowHours = 2
	}
	if g.WindowHours > 48 {
		g.WindowHours = 48
	}
	g.Headroom = frac(g.Headroom, 0.005, 0.20)
	g.Churn = frac(g.Churn, 0.005, 0.20)
	if g.MaxZones < 1 {
		g.MaxZones = 1
	}
	if g.MaxZones > 3 {
		g.MaxZones = 3
	}
	return g
}

// Weights is the multi-objective fitness weighting: dollars of cost
// against hours of deadline margin and hours of checkpoint waste
// (rework plus overhead). Fitness is
//
//	-Cost·cost + Margin·margin_hours − Waste·waste_hours
//
// so higher is better; a run that misses the deadline or fails to
// complete is heavily penalized regardless of weights.
type Weights struct {
	// Cost weights dollars spent (per dollar).
	Cost float64 `json:"cost"`
	// Margin rewards finishing early (per hour of slack left).
	Margin float64 `json:"margin"`
	// Waste penalizes rework and checkpoint overhead (per hour).
	Waste float64 `json:"waste"`
}

// DefaultWeights returns the cost-dominant default: $1 of cost trades
// against 20 hours of margin or 10 hours of waste.
func DefaultWeights() Weights { return Weights{Cost: 1, Margin: 0.05, Waste: 0.1} }

// Eval is one evaluated genome.
type Eval struct {
	// Genome is the evaluated configuration.
	Genome Genome `json:"genome"`
	// Fitness is the weighted multi-objective score (higher is better).
	Fitness float64 `json:"fitness"`
	// Cost, MarginHours and WasteHours are the fitness components.
	Cost        float64 `json:"cost"`
	MarginHours float64 `json:"margin_hours"`
	WasteHours  float64 `json:"waste_hours"`
	// Outcome is the underlying run summary.
	Outcome Outcome `json:"outcome"`
}

// SearchResult summarises one tuner search.
type SearchResult struct {
	// Best is the highest-fitness configuration found; by construction
	// Best.Fitness >= Default.Fitness (the default genome is always in
	// the grid stage).
	Best Eval `json:"best"`
	// Default is the paper-default genome's evaluation on the same
	// configuration, for comparison.
	Default Eval `json:"default"`
	// Evaluated counts distinct genomes simulated (cache hits from a
	// resumed checkpoint excluded).
	Evaluated int `json:"evaluated"`
	// Decisions counts Adaptive decision points simulated by this
	// process during the search (search throughput numerator).
	Decisions int64 `json:"decisions"`
	// Generations is how many evolutionary generations ran.
	Generations int `json:"generations"`
}

// tunerState is the atomic-rename checkpoint a killed search resumes
// from: the evaluation cache plus the next generation to run. Resuming
// is deterministic — the same seed and weights produce the same final
// result whether or not the search was interrupted.
type tunerState struct {
	// Seed and Weights fingerprint the search; a mismatching checkpoint
	// is rejected rather than silently blended.
	Seed    uint64  `json:"seed"`
	Weights Weights `json:"weights"`
	// NextGen is the next evolutionary generation to run (0 = grid
	// stage done, evolution not started).
	NextGen int `json:"next_gen"`
	// GridDone marks the grid stage complete.
	GridDone bool `json:"grid_done"`
	// Evals is the evaluation cache.
	Evals []Eval `json:"evals"`
	// Evaluated counts genomes simulated across all processes.
	Evaluated int `json:"evaluated"`
	// Digest seals the fields above (see seal): a checkpoint whose
	// values no longer hash to it is corrupt.
	Digest string `json:"digest"`
}

// seal returns the state's digest: FNV-64a over the JSON encoding of
// its values with Digest empty.
func (st tunerState) seal() (string, error) {
	st.Digest = ""
	data, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// validate refuses a state Search cannot resume into the search that
// wrote it: a generation before the grid stage or below zero, a genome
// outside the search box, a non-finite fitness, a finished grid stage
// that lacks the default genome, or values that no longer match the
// digest.
func (st *tunerState) validate() error {
	if st.NextGen < 0 || (st.NextGen > 0 && !st.GridDone) {
		return fmt.Errorf("next_gen %d with grid_done %t", st.NextGen, st.GridDone)
	}
	def, hasDef := DefaultGenome(), false
	for _, ev := range st.Evals {
		if ev.Genome.clamp() != ev.Genome {
			return fmt.Errorf("genome %s outside the search box", ev.Genome.Key())
		}
		if math.IsNaN(ev.Fitness) || math.IsInf(ev.Fitness, 0) {
			return fmt.Errorf("genome %s has fitness %g", ev.Genome.Key(), ev.Fitness)
		}
		hasDef = hasDef || ev.Genome == def
	}
	if st.GridDone && !hasDef {
		return errors.New("grid stage done without the default genome")
	}
	if sum, err := st.seal(); err != nil || sum != st.Digest {
		return errors.New("values do not match the digest")
	}
	return nil
}

// Tuner searches the Adaptive hyperparameter space against one run
// configuration: a deterministic grid stage (the default genome plus
// single-axis variations) followed by a seeded evolutionary stage
// (mutation + crossover of the elite population), both parallelized on
// internal/pool. The search is deterministic for a fixed Seed and
// resumable from StatePath.
type Tuner struct {
	// Cfg is the run configuration genomes are evaluated on.
	Cfg sim.Config
	// Weights is the fitness weighting; zero value selects
	// DefaultWeights.
	Weights Weights
	// Seed drives the evolutionary stage's random stream.
	Seed uint64
	// Workers bounds the evaluation fan-out; 0 selects GOMAXPROCS.
	Workers int
	// Population is the elite/offspring size; 0 selects 12.
	Population int
	// Generations is the evolutionary budget; 0 selects 6.
	Generations int
	// StatePath, when non-empty, checkpoints the search after the grid
	// stage and after every generation (atomic rename), and resumes
	// from an existing checkpoint.
	StatePath string
	// Log, when non-nil, receives one progress line per stage.
	Log io.Writer

	counter CountingSink
}

func (t *Tuner) weights() Weights {
	if t.Weights == (Weights{}) {
		return DefaultWeights()
	}
	return t.Weights
}

func (t *Tuner) population() int {
	if t.Population <= 0 {
		return 12
	}
	return t.Population
}

func (t *Tuner) generations() int {
	if t.Generations <= 0 {
		return 6
	}
	return t.Generations
}

// logf writes one progress line when logging is enabled.
func (t *Tuner) logf(format string, args ...any) {
	if t.Log != nil {
		fmt.Fprintf(t.Log, format+"\n", args...)
	}
}

// evalGenome simulates one genome on the tuner's configuration and
// scores it.
func (t *Tuner) evalGenome(g Genome) (Eval, error) {
	a := g.Adaptive()
	a.Sink = &t.counter
	var out Outcome
	err := sim.RunPooled(t.Cfg, a, func(res *sim.Result) { out = Summarize(res) })
	if err != nil {
		return Eval{}, fmt.Errorf("decision: genome %s: %w", g.Key(), err)
	}
	deadline := t.Cfg.Trace.Start() + t.Cfg.Deadline
	margin := float64(deadline-out.FinishTime) / float64(trace.Hour)
	waste := float64(out.ReworkSeconds+out.OverheadSeconds) / float64(trace.Hour)
	w := t.weights()
	fit := -w.Cost*out.Cost + w.Margin*margin - w.Waste*waste
	if !out.Completed || !out.DeadlineMet {
		fit -= 1e6
	}
	return Eval{Genome: g, Fitness: fit, Cost: out.Cost, MarginHours: margin, WasteHours: waste, Outcome: out}, nil
}

// evalAll evaluates every genome not in the cache (deduplicated, input
// order preserved) across the worker pool and folds the results into
// the cache and the checkpoint state.
func (t *Tuner) evalAll(genomes []Genome, cache map[string]Eval, st *tunerState) error {
	var fresh []Genome
	seen := make(map[string]bool)
	for _, g := range genomes {
		k := g.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := cache[k]; ok {
			continue
		}
		fresh = append(fresh, g)
	}
	evals := make([]Eval, len(fresh))
	err := pool.RunErr(t.Workers, len(fresh), func(i int) error {
		ev, err := t.evalGenome(fresh[i])
		evals[i] = ev
		return err
	})
	if err != nil {
		return err
	}
	for _, ev := range evals {
		cache[ev.Genome.Key()] = ev
		st.Evals = append(st.Evals, ev)
	}
	st.Evaluated += len(fresh)
	return nil
}

// gridGenomes is the deterministic stage-one lattice: the default
// genome first (anchoring the no-worse-than-default guarantee), then
// single-axis variations around it.
func (t *Tuner) gridGenomes() []Genome {
	def := DefaultGenome()
	out := []Genome{def}
	vary := func(mut func(Genome) Genome) {
		out = append(out, mut(def).clamp())
	}
	for _, lo := range []float64{0.17, 0.47, 0.81} {
		lo := lo
		vary(func(g Genome) Genome { g.BidLo = lo; return g })
	}
	for _, hi := range []float64{1.67, 2.47} {
		hi := hi
		vary(func(g Genome) Genome { g.BidHi = hi; return g })
	}
	for _, step := range []float64{0.10, 0.40} {
		step := step
		vary(func(g Genome) Genome { g.BidStep = step; return g })
	}
	for _, wh := range []int{6, 18, 24} {
		wh := wh
		vary(func(g Genome) Genome { g.WindowHours = wh; return g })
	}
	for _, h := range []float64{0.01, 0.08} {
		h := h
		vary(func(g Genome) Genome { g.Headroom = h; return g })
	}
	for _, c := range []float64{0.01, 0.05} {
		c := c
		vary(func(g Genome) Genome { g.Churn = c; return g })
	}
	for _, z := range []int{1, 2} {
		z := z
		vary(func(g Genome) Genome { g.MaxZones = z; return g })
	}
	return out
}

// topEvals returns the cache's evaluations best-first (fitness
// descending, genome key ascending for determinism).
func topEvals(cache map[string]Eval) []Eval {
	out := make([]Eval, 0, len(cache))
	for _, ev := range cache {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fitness != out[j].Fitness {
			return out[i].Fitness > out[j].Fitness
		}
		return out[i].Genome.Key() < out[j].Genome.Key()
	})
	return out
}

// mutate perturbs one to three axes of a genome.
func mutate(rng *rand.Rand, g Genome) Genome {
	for hops := 1 + rng.IntN(3); hops > 0; hops-- {
		switch rng.IntN(7) {
		case 0:
			g.BidLo += []float64{-0.20, -0.10, 0.10, 0.20}[rng.IntN(4)]
		case 1:
			g.BidHi += []float64{-0.60, -0.20, 0.20, 0.60}[rng.IntN(4)]
		case 2:
			g.BidStep *= []float64{0.5, 2}[rng.IntN(2)]
		case 3:
			g.WindowHours += []int{-6, -2, 2, 6}[rng.IntN(4)]
		case 4:
			g.Headroom *= []float64{0.5, 2}[rng.IntN(2)]
		case 5:
			g.Churn *= []float64{0.5, 2}[rng.IntN(2)]
		case 6:
			g.MaxZones += []int{-1, 1}[rng.IntN(2)]
		}
	}
	return g.clamp()
}

// crossover mixes two genomes axis-by-axis.
func crossover(rng *rand.Rand, a, b Genome) Genome {
	pick := func(x, y float64) float64 {
		if rng.IntN(2) == 0 {
			return x
		}
		return y
	}
	g := Genome{
		BidLo:    pick(a.BidLo, b.BidLo),
		BidHi:    pick(a.BidHi, b.BidHi),
		BidStep:  pick(a.BidStep, b.BidStep),
		Headroom: pick(a.Headroom, b.Headroom),
		Churn:    pick(a.Churn, b.Churn),
	}
	if rng.IntN(2) == 0 {
		g.WindowHours = a.WindowHours
	} else {
		g.WindowHours = b.WindowHours
	}
	if rng.IntN(2) == 0 {
		g.MaxZones = a.MaxZones
	} else {
		g.MaxZones = b.MaxZones
	}
	return g.clamp()
}

// spawn derives one generation of offspring from the elite population:
// half mutations, half crossovers (mutated at half rate).
func (t *Tuner) spawn(rng *rand.Rand, elites []Eval) []Genome {
	n := t.population()
	out := make([]Genome, 0, n)
	parent := func() Genome { return elites[rng.IntN(len(elites))].Genome }
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			out = append(out, mutate(rng, parent()))
		} else {
			child := crossover(rng, parent(), parent())
			if rng.IntN(2) == 0 {
				child = mutate(rng, child)
			}
			out = append(out, child)
		}
	}
	return out
}

// loadState loads the checkpoint, returning a fresh state when no
// checkpoint exists and an error when one exists but was written by a
// differently-parameterised search or is corrupt.
func (t *Tuner) loadState() (*tunerState, error) {
	st := &tunerState{Seed: t.Seed, Weights: t.weights()}
	if t.StatePath == "" {
		return st, nil
	}
	data, err := os.ReadFile(t.StatePath)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	var loaded tunerState
	if err := json.Unmarshal(data, &loaded); err != nil {
		return nil, fmt.Errorf("decision: bad tuner checkpoint %s: %w", t.StatePath, err)
	}
	if loaded.Seed != t.Seed || loaded.Weights != t.weights() {
		return nil, fmt.Errorf("decision: checkpoint %s was written by a different search (seed/weights mismatch)", t.StatePath)
	}
	if err := loaded.validate(); err != nil {
		return nil, fmt.Errorf("decision: corrupt tuner checkpoint %s: %w", t.StatePath, err)
	}
	return &loaded, nil
}

// saveState checkpoints the search via write-to-temp + atomic rename.
func (t *Tuner) saveState(st *tunerState) error {
	if t.StatePath == "" {
		return nil
	}
	var err error
	if st.Digest, err = st.seal(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	tmp := t.StatePath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, t.StatePath)
}

// Search runs the grid stage and the evolutionary stage to completion
// and returns the best configuration found. For a fixed Seed the result
// is reproducible, including across kill-and-resume via StatePath.
func (t *Tuner) Search() (*SearchResult, error) {
	if err := t.Cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := t.loadState()
	if err != nil {
		return nil, err
	}
	cache := make(map[string]Eval, len(st.Evals))
	for _, ev := range st.Evals {
		cache[ev.Genome.Key()] = ev
	}
	if !st.GridDone {
		grid := t.gridGenomes()
		if err := t.evalAll(grid, cache, st); err != nil {
			return nil, err
		}
		st.GridDone = true
		if err := t.saveState(st); err != nil {
			return nil, err
		}
		t.logf("grid: %d genomes, best fitness %.4f", len(grid), topEvals(cache)[0].Fitness)
	}
	gens := t.generations()
	for gen := st.NextGen; gen < gens; gen++ {
		// Reseeding per generation from (Seed, gen) makes each
		// generation a pure function of the cache state before it, so a
		// resumed search replays the identical stream.
		rng := rand.New(rand.NewPCG(t.Seed, uint64(gen)+1))
		elites := topEvals(cache)
		if n := t.population(); len(elites) > n {
			elites = elites[:n]
		}
		children := t.spawn(rng, elites)
		if err := t.evalAll(children, cache, st); err != nil {
			return nil, err
		}
		st.NextGen = gen + 1
		if err := t.saveState(st); err != nil {
			return nil, err
		}
		t.logf("gen %d: best fitness %.4f (%d evaluated)", gen, topEvals(cache)[0].Fitness, st.Evaluated)
	}
	best := topEvals(cache)[0]
	def, ok := cache[DefaultGenome().Key()]
	if !ok {
		return nil, fmt.Errorf("decision: default genome missing from cache")
	}
	return &SearchResult{
		Best:        best,
		Default:     def,
		Evaluated:   st.Evaluated,
		Decisions:   t.counter.Count(),
		Generations: gens,
	}, nil
}
