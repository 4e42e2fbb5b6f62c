package qk

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestMaxHeapCanonicalOrder interleaves pushes and pops of tie-heavy
// entries and checks every pop against the best entry of a plain list.
func TestMaxHeapCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		var h maxHeap
		var ref []candidate
		for i := rng.Intn(20); i > 0; i-- {
			c := candidate{rng.Intn(15), float64(rng.Intn(4))}
			h = append(h, c)
			ref = append(ref, c)
		}
		h.init()
		for step := 0; step < 60; step++ {
			if len(ref) == 0 || rng.Intn(3) == 0 {
				c := candidate{rng.Intn(15), float64(rng.Intn(4))}
				h.push(c)
				ref = append(ref, c)
				continue
			}
			best := 0
			for i, c := range ref {
				if c.before(ref[best]) {
					best = i
				}
			}
			if got := h.pop(); got != ref[best] {
				t.Fatalf("trial %d step %d: popped %+v, want %+v", trial, step, got, ref[best])
			}
			ref = slices.Delete(ref, best, best+1)
			if len(h) != len(ref) {
				t.Fatalf("trial %d step %d: heap holds %d entries, want %d", trial, step, len(h), len(ref))
			}
		}
	}
}

// TestMaxHeapAllocs pins push and pop at zero allocations once the
// backing slice has room: the greedy loops run them on every step.
func TestMaxHeapAllocs(t *testing.T) {
	h := make(maxHeap, 0, 64)
	for v := 0; v < 32; v++ {
		h.push(candidate{v, float64(v % 5)})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c := h.pop()
		c.score++
		h.push(c)
	})
	if allocs != 0 {
		t.Errorf("maxHeap push+pop allocates %v per run, want 0", allocs)
	}
}

// TestRadixSortMatchesComparisonSort sorts random node-ordered lists
// both ways with radixSort and with a comparison sort (score, then
// node), on tie-heavy scores, scores that share every byte but one,
// fractional and huge scores, zeros and +Inf.
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pools := [][]float64{
		{0, 1, 2, 3},
		{1, 1 + 0x1p-52, 1 + 0x2p-52, 1 + 0x1p-44},
		{0.1, 0.3, 1.0 / 3, 7.25, 1e300, 5e-324, math.Inf(1)},
	}
	for trial := 0; trial < 300; trial++ {
		pool := pools[trial%len(pools)]
		c := make([]candidate, rng.Intn(70))
		for v := range c {
			c[v] = candidate{v, pool[rng.Intn(len(pool))]}
			if trial%4 == 3 {
				c[v].score = rng.Float64() * 100
			}
		}
		for _, desc := range []bool{false, true} {
			got, want := slices.Clone(c), slices.Clone(c)
			radixSort(got, desc, make([]candidate, len(c)))
			slices.SortStableFunc(want, func(a, b candidate) int {
				if desc {
					return cmp.Compare(b.score, a.score)
				}
				return cmp.Compare(a.score, b.score)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d desc %v:\n radix %v\n sort  %v", trial, desc, got, want)
			}
		}
	}
}
