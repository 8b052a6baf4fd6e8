package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// stubBackends builds n handler-less backends named quoted-0..n-1.
func stubBackends(n int) []*Backend {
	out := make([]*Backend, n)
	for i := range out {
		out[i] = NewBackend(fmt.Sprintf("quoted-%d", i), http.NotFoundHandler())
	}
	return out
}

// TestRoundRobinDeterminism pins the policy's cycle: request i prefers
// backend i mod N and the failover tail continues the rotation.
func TestRoundRobinDeterminism(t *testing.T) {
	backends := stubBackends(3)
	p := NewRoundRobin()
	dst := make([]int, 3)
	want := [][]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 1, 2}}
	for i, w := range want {
		p.Order(0, backends, dst)
		for j := range w {
			if dst[j] != w[j] {
				t.Fatalf("request %d: order %v, want %v", i, dst, w)
			}
		}
	}
}

// TestLeastLoadedTieBreaking covers both the load ordering and the
// deterministic fleet-index tie-break.
func TestLeastLoadedTieBreaking(t *testing.T) {
	cases := []struct {
		name  string
		loads []int64
		want  []int
	}{
		{"all idle ties by index", []int64{0, 0, 0}, []int{0, 1, 2}},
		{"distinct loads sort ascending", []int64{5, 1, 3}, []int{1, 2, 0}},
		{"partial tie keeps index order", []int64{2, 0, 2}, []int{1, 0, 2}},
		{"busy head moves last", []int64{9, 0, 0}, []int{1, 2, 0}},
	}
	p := NewLeastLoaded()
	for _, tc := range cases {
		backends := stubBackends(len(tc.loads))
		for i, l := range tc.loads {
			backends[i].inflight.Add(l)
		}
		dst := make([]int, len(backends))
		p.Order(0, backends, dst)
		for j := range tc.want {
			if dst[j] != tc.want[j] {
				t.Fatalf("%s: order %v, want %v", tc.name, dst, tc.want)
			}
		}
	}
}

// TestAffinityStableAndBalanced checks that the rendezvous assignment
// is deterministic and spreads keys across every backend.
func TestAffinityStableAndBalanced(t *testing.T) {
	backends := stubBackends(3)
	p := NewAffinity()
	dst := make([]int, 3)
	counts := make([]int, 3)
	assign := map[uint64]int{}
	for key := uint64(0); key < 300; key++ {
		p.Order(key, backends, dst)
		assign[key] = dst[0]
		counts[dst[0]]++
		p.Order(key, backends, dst)
		if dst[0] != assign[key] {
			t.Fatalf("key %d: assignment moved between identical calls", key)
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("backend %d received no keys: %v", i, counts)
		}
	}
}

// TestAffinityStabilityUnderJoinLeave is the rendezvous property the
// policy exists for: removing a backend remaps only its own keys, and
// adding one steals keys only for itself.
func TestAffinityStabilityUnderJoinLeave(t *testing.T) {
	full := stubBackends(3)
	p := NewAffinity()
	const keys = 500

	pick := func(backends []*Backend, key uint64) string {
		dst := make([]int, len(backends))
		p.Order(key, backends, dst)
		return backends[dst[0]].Name
	}

	before := make([]string, keys)
	for key := 0; key < keys; key++ {
		before[key] = pick(full, uint64(key))
	}

	// Leave: drop quoted-1. Keys owned by survivors must not move.
	reduced := []*Backend{full[0], full[2]}
	remapped := 0
	for key := 0; key < keys; key++ {
		after := pick(reduced, uint64(key))
		if before[key] != "quoted-1" {
			if after != before[key] {
				t.Fatalf("key %d moved %s → %s though its owner survived", key, before[key], after)
			}
		} else {
			remapped++
		}
	}
	if remapped == 0 {
		t.Fatal("no keys were owned by the removed backend; test is vacuous")
	}

	// Join: add quoted-3. Keys may move only onto the newcomer.
	grown := append([]*Backend{}, full...)
	grown = append(grown, NewBackend("quoted-3", http.NotFoundHandler()))
	stolen := 0
	for key := 0; key < keys; key++ {
		after := pick(grown, uint64(key))
		if after != before[key] {
			if after != "quoted-3" {
				t.Fatalf("key %d moved %s → %s instead of to the joining backend", key, before[key], after)
			}
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("joining backend stole no keys; test is vacuous")
	}
}

// TestPoliciesConcurrent hammers every policy from many goroutines so
// the race detector sees the shared state (round-robin's counter, the
// in-flight gauges).
func TestPoliciesConcurrent(t *testing.T) {
	backends := stubBackends(4)
	for _, p := range Policies() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := make([]int, len(backends))
				for i := 0; i < 200; i++ {
					backends[g%len(backends)].inflight.Add(1)
					p.Order(uint64(g*1000+i), backends, dst)
					backends[g%len(backends)].inflight.Add(-1)
					seen := 0
					for _, idx := range dst {
						seen |= 1 << idx
					}
					if seen != 1<<len(backends)-1 {
						t.Errorf("%s: order %v is not a permutation", p.Name(), dst)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestParsePolicy covers the flag surface.
func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"round-robin", "least-loaded", "affinity"} {
		p, err := ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}
