package trace

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Chain-state columns. A Markov chain fit (markov.WindowFitter) counts
// transitions between bucketed prices, and a sample's state depends on
// its price alone, so a trace buckets each price once: a root series
// owns one state column, built lazily and goroutine-safely on the first
// States call of the root or any slice of it (a root that grows by
// append extends it), and every slice reads it by offset. A column
// costs 4 bytes per sample plus its value table. A series whose owner
// moves its prices in place, such as a Tape's window, carries the
// states its owner keeps beside them instead (SetStates). A root whose
// prices change in place after a States call keeps a stale column.

// Quantum is the price width of a chain state's bucket: a nickel, which
// bounds the state count on volatile histories.
const Quantum = 0.05

// Bucket returns the value of price p's chain state: p rounded to the
// nearest Quantum, the rounding markov.Quantize repeats. It is the one
// bucketing function of the columns; any finite price has a state.
func Bucket(p float64) float64 { return math.Round(p/Quantum) * Quantum }

// Buckets is a state column built by appending prices: ids[i] is
// sample i's state, an index into vals, the state values in first-seen
// order. Equal values are one state (map equality: -0 and +0
// coincide). It keeps no prices. Add never rewrites a state a view
// (States) holds, so views taken earlier stay valid as it grows, and
// one goroutine may add while others read views it handed out under a
// lock they share. The zero value is empty.
type Buckets struct {
	ids   []int32
	vals  []float64
	index map[float64]int32
	last  float64 // the price of the last sample
}

// Add buckets p and appends its state. Price columns are step
// functions, so most samples repeat the last and skip the lookup.
func (b *Buckets) Add(p float64) {
	if n := len(b.ids); n > 0 && p == b.last {
		b.ids = append(b.ids, b.ids[n-1])
		return
	}
	b.last = p
	v := Bucket(p)
	id, ok := b.index[v]
	if !ok {
		if b.index == nil {
			b.index = make(map[float64]int32)
		}
		id = int32(len(b.vals))
		b.vals = append(b.vals, v)
		b.index[v] = id
	}
	b.ids = append(b.ids, id)
}

// Len returns the number of samples.
func (b *Buckets) Len() int { return len(b.ids) }

// States returns the column's states: ids[i] is sample i's state and
// vals[id] its value.
func (b *Buckets) States() (ids []int32, vals []float64) { return b.ids, b.vals }

// column is the state column a root series shares with its slices,
// built lazily over root and extended as it grows; each extension is
// published as a snapshot that never rewrites a reader's prefix.
type column struct {
	root *Series
	mu   sync.Mutex
	snap atomic.Pointer[Buckets]
}

// view returns the states of the column's samples [lo, hi).
func (c *column) view(lo, hi int) ([]int32, []float64) {
	b := c.snap.Load()
	if b == nil || len(b.ids) < hi {
		c.mu.Lock()
		if b = c.snap.Load(); b == nil || len(b.ids) < hi {
			next := &Buckets{}
			if b != nil {
				*next = *b
			}
			next.ids = slices.Grow(next.ids, len(c.root.Prices)-len(next.ids))
			for _, p := range c.root.Prices[len(next.ids):] {
				next.Add(p)
			}
			c.snap.Store(next)
			b = next
		}
		c.mu.Unlock()
	}
	return b.ids[lo:hi], b.vals
}

// States returns the series' chain states: ids[i] is the state of
// Prices[i] and vals[id] its value, Bucket of its prices. Ids number a
// root's states in first-seen order, and a slice reads its root's, so
// one id means one value in every view of a root. The views are
// read-only and stay valid as the series grows.
func (s *Series) States() (ids []int32, vals []float64) {
	if s.held {
		return s.ids, s.vals
	}
	return s.column().view(s.off, s.off+len(s.Prices))
}

// SetStates gives the series the chain states its owner keeps beside
// its prices, in place of a root column: ids[i] is the state of
// Prices[i] and vals[id] its value, Bucket of its prices, as States
// returns them (a Buckets over the same prices, say). The series and
// its slices keep the two slice headers, so the owner may append to
// their storage while a reader holds them, but must not rewrite what a
// reader can still read.
func (s *Series) SetStates(ids []int32, vals []float64) {
	s.held, s.ids, s.vals, s.off = true, ids, vals, 0
	s.col.Store(nil)
}

// JoinStates returns the states of s followed by next, and true, when
// next continues s in one root's column: two slices of a root that
// meet, as an experiment window's history and run do.
func JoinStates(s, next *Series) (ids []int32, vals []float64, ok bool) {
	if s.held || next.held {
		return nil, nil, false
	}
	c := s.column()
	if next.column() != c || s.off+len(s.Prices) != next.off {
		return nil, nil, false
	}
	ids, vals = c.view(s.off, next.off+len(next.Prices))
	return ids, vals, true
}

// column returns the column the series reads, giving a root that has
// none its lazy column.
func (s *Series) column() *column {
	if c := s.col.Load(); c != nil {
		return c
	}
	s.col.CompareAndSwap(nil, &column{root: s})
	return s.col.Load()
}
