package qk

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/wgraph"
)

func TestSolveHeuristicGuardMatchesUnguarded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomQK(rng, 40, 0.2, 8)
	plain := SolveHeuristic(g, 20, Options{Seed: 3})
	guarded := SolveHeuristicGuard(guard.New(context.Background()), g, 20, Options{Seed: 3})
	if plain.Weight != guarded.Weight || plain.Cost != guarded.Cost {
		t.Errorf("untripped guard diverged: weight %v/%v cost %v/%v",
			guarded.Weight, plain.Weight, guarded.Cost, plain.Cost)
	}
}

func TestCancelReturnsFeasibleSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomQK(rng, 60, 0.2, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	guard.Arm("qk.restart", guard.CancelFault(cancel))
	defer guard.DisarmAll()
	gu := guard.New(ctx)
	res := SolveHeuristicGuard(gu, g, 25, Options{Seed: 3})
	if !gu.Tripped() {
		t.Fatal("fault did not trip the guard")
	}
	checkFeasible(t, g, res, 25)
}

func TestWorkerPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomQK(rng, 60, 0.2, 8)
	guard.Arm("qk.restart", guard.PanicFault("worker boom"))
	defer guard.DisarmAll()
	gu := guard.New(context.Background())
	res := SolveHeuristicGuard(gu, g, 25, Options{Seed: 3})
	if gu.Status() != guard.Recovered {
		t.Fatalf("Status = %v, want Recovered", gu.Status())
	}
	if gu.PanicErr() == nil {
		t.Fatal("no panic recorded")
	}
	checkFeasible(t, g, res, 25)
}

func TestWorkerPoolLeaksNoGoroutinesOnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomQK(rng, 80, 0.25, 8)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		guard.Arm("qk.restart", guard.CancelFault(cancel))
		_ = SolveHeuristicGuard(guard.New(ctx), g, 30, Options{Seed: int64(i + 1)})
		guard.DisarmAll()
		cancel()
	}
	// The pool drains via wg.Wait() before SolveHeuristicGuard returns, so
	// no worker can outlive the call; give the runtime a moment to retire
	// finished goroutines before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSolveScratchReuseKeepsResults solves graphs of different sizes,
// budgets and iteration counts in one order, then again in another and
// from 4 goroutines at once, and requires the same results: the pooled
// per-call scratch carries nothing from one call to the next.
func TestSolveScratchReuseKeepsResults(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type input struct {
		g      *wgraph.Graph
		budget float64
		opts   Options
	}
	inputs := make([]input, 24)
	want := make([]Result, len(inputs))
	for i := range inputs {
		g := randomQK(rng, 5+rng.Intn(40), 0.1+rng.Float64()*0.3, 1+rng.Intn(8))
		inputs[i] = input{g, float64(2 + rng.Intn(30)), Options{Seed: int64(1 + i%3), Iterations: 1 + rng.Intn(6)}}
		want[i] = SolveHeuristic(inputs[i].g, inputs[i].budget, inputs[i].opts)
	}
	same := func(a, b Result) bool {
		return slices.Equal(a.Nodes, b.Nodes) && a.Weight == b.Weight && a.Cost == b.Cost
	}
	for k := range inputs {
		i := (k*7 + 3) % len(inputs)
		if got := SolveHeuristic(inputs[i].g, inputs[i].budget, inputs[i].opts); !same(got, want[i]) {
			t.Fatalf("input %d re-solved: %v, want %v", i, got, want[i])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range inputs {
				i := (k*5 + w) % len(inputs)
				if got := SolveHeuristic(inputs[i].g, inputs[i].budget, inputs[i].opts); !same(got, want[i]) {
					t.Errorf("goroutine %d, input %d: %v, want %v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
