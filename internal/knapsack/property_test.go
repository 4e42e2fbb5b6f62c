package knapsack

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// randomExactInput draws an exact-DP input: up to 40 items whose integer
// weights may exceed the capacity, whose values may be zero, negative or
// fractional, and a capacity from 0 to 150.
func randomExactInput(rng *rand.Rand) ([]Item, int) {
	capacity := rng.Intn(151)
	if rng.Intn(8) == 0 {
		capacity = 0
	}
	items := make([]Item, rng.Intn(41))
	for i := range items {
		var v float64
		switch r := rng.Intn(10); {
		case r == 0:
			v = 0
		case r == 1:
			v = -float64(1 + rng.Intn(9))
		case r <= 4:
			v = float64(1+rng.Intn(60)) / 7
		default:
			v = float64(1 + rng.Intn(20))
		}
		items[i] = Item{Value: v, Weight: float64(rng.Intn(capacity + 40)), Payload: i}
	}
	return items, capacity
}

// checkExactOracle requires SolveExactInt to choose the oracle's items
// and report its value and weight, bit for bit.
func checkExactOracle(t *testing.T, items []Item, capacity int) {
	t.Helper()
	got, want := SolveExactInt(items, capacity), oracleExactInt(items, capacity)
	if !slices.Equal(got.Chosen, want.Chosen) ||
		math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
		math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
		t.Fatalf("capacity %d, items %v:\n got %v value %v weight %v\n want %v value %v weight %v",
			capacity, items, got.Chosen, got.Value, got.Weight, want.Chosen, want.Value, want.Weight)
	}
}

// TestExactIntMatchesOracle interleaves sizes, so that each call finds
// the pooled tables left by a call of another size.
func TestExactIntMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 600; trial++ {
		items, capacity := randomExactInput(rng)
		checkExactOracle(t, items, capacity)
	}
}

func FuzzKnapsack(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(8))
	f.Fuzz(func(t *testing.T, seed int64) {
		items, capacity := randomExactInput(rand.New(rand.NewSource(seed)))
		checkExactOracle(t, items, capacity)
	})
}

// TestConcurrentExactIntMatchesSequential solves inputs of different
// sizes from 8 goroutines at once on the pooled tables.
func TestConcurrentExactIntMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type input struct {
		items    []Item
		capacity int
	}
	inputs := make([]input, 64)
	want := make([]Result, len(inputs))
	for i := range inputs {
		inputs[i].items, inputs[i].capacity = randomExactInput(rng)
		want[i] = SolveExactInt(inputs[i].items, inputs[i].capacity)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (w*7 + round*3) % len(inputs)
				got := SolveExactInt(inputs[i].items, inputs[i].capacity)
				if !slices.Equal(got.Chosen, want[i].Chosen) || got.Value != want[i].Value || got.Weight != want[i].Weight {
					t.Errorf("goroutine %d input %d: got %v, want %v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestExactIntAllocs pins the pooled tables: once warm, a 3,500-item DP
// at capacity 1,000 allocates only its result.
func TestExactIntAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(31))
	items := make([]Item, 3500)
	for i := range items {
		items[i] = Item{Value: float64(1 + rng.Intn(50)), Weight: float64(1 + rng.Intn(400))}
	}
	const capacity = 1000
	SolveExactInt(items, capacity)
	if n := testing.AllocsPerRun(50, func() { SolveExactInt(items, capacity) }); n > 1 {
		t.Errorf("%v allocations per call, want ≤ 1", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		SolveExactInt(items, capacity)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 16<<10 {
		t.Errorf("%d bytes allocated per call, want ≤ 16 KB", b)
	}
}
