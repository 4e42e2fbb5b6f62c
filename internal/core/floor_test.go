package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
)

// TestSolveCtxJoinsFloorOnEveryPath arms a panic at each A^BCC injection
// point, and separately a cancel, and requires SolveCtx to return
// Recovered or Canceled with a feasible plan only after the floor
// goroutine has finished. The other points carry a tripwire that notes
// any call made after SolveCtx returned: a floor left running would
// reach one. A panic at core.phase or knapsack.solve ends the main
// pipeline at its first phase, while the floor is still in its IG1 fill
// or MC3 step, so that is the path where a missing join shows.
func TestSolveCtxJoinsFloorOnEveryPath(t *testing.T) {
	points := []string{"core.phase", "knapsack.solve", "qk.restart", "mc3.solve"}
	type fault struct {
		name, point string
		want        guard.Status
	}
	cases := []fault{{"cancel", "core.phase", guard.Canceled}}
	for _, p := range points {
		cases = append(cases, fault{"panic " + p, p, guard.Recovered})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := anytimeInstance(5)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var returned, late atomic.Bool
			for _, p := range points {
				guard.Arm(p, func() {
					time.Sleep(time.Millisecond)
					if returned.Load() {
						late.Store(true)
					}
				})
			}
			if c.want == guard.Canceled {
				guard.Arm(c.point, guard.CancelFault(cancel))
			} else {
				guard.Arm(c.point, guard.PanicFault("injected: "+c.point))
			}
			defer guard.DisarmAll()

			before := runtime.NumGoroutine()
			res := SolveCtx(ctx, in, Options{Seed: 1})
			returned.Store(true)
			if res.Status != c.want {
				t.Errorf("Status = %v (err %v), want %v", res.Status, res.Err, c.want)
			}
			checkFeasibleResult(t, in, res)
			waitGoroutines(t, before)
			if late.Load() {
				t.Fatal("an injection point fired after SolveCtx returned: the floor outlived the call")
			}
		})
	}
}

// waitGoroutines waits until no more goroutines run than before, giving
// the runtime a moment to retire ones that have already finished.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentSolvesMatchSequential runs eight SolveCtx calls on
// different instances at once and requires each to return the plan its
// sequential run returned: the floor goroutines and QK restart workers of
// concurrent solves share no state.
func TestConcurrentSolvesMatchSequential(t *testing.T) {
	type plan struct {
		keys          []string
		utility, cost uint64
	}
	planOf := func(r Result) plan {
		p := plan{utility: math.Float64bits(r.Utility), cost: math.Float64bits(r.Cost)}
		for _, c := range r.Solution.Classifiers() {
			p.keys = append(p.keys, c.Props.Key())
		}
		return p
	}
	rng := rand.New(rand.NewSource(23))
	const n = 8
	var solves [n]func() Result
	var want, got [n]plan
	for i := range solves {
		in := randomInstance(rng, 20, 160, 3, float64(20+rng.Intn(40)))
		opts := Options{Seed: int64(i + 1)}
		solves[i] = func() Result { return SolveCtx(context.Background(), in, opts) }
		want[i] = planOf(solves[i]())
	}
	var wg sync.WaitGroup
	for i := range solves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = planOf(solves[i]())
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i].utility != want[i].utility || got[i].cost != want[i].cost || !slices.Equal(got[i].keys, want[i].keys) {
			t.Errorf("instance %d: concurrent plan (utility %v, cost %v, %d classifiers) differs from sequential (utility %v, cost %v, %d classifiers)",
				i, math.Float64frombits(got[i].utility), math.Float64frombits(got[i].cost), len(got[i].keys),
				math.Float64frombits(want[i].utility), math.Float64frombits(want[i].cost), len(want[i].keys))
		}
	}
}
