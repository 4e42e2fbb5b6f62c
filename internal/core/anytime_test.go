package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/model"
)

// anytimeInstance is big enough to exercise every solver phase: length-2
// queries populate the BCC(2) graph (QK restarts), singletons the knapsack,
// and coverage triggers the MC3 improvement.
func anytimeInstance(seed int64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return randomInstance(rng, 30, 400, 3, 60)
}

func checkFeasibleResult(t *testing.T, in *model.Instance, res Result) {
	t.Helper()
	if res.Solution == nil {
		t.Fatal("nil Solution")
	}
	if res.Cost > in.Budget()+1e-9 {
		t.Fatalf("cost %v exceeds budget %v", res.Cost, in.Budget())
	}
	if got := res.Solution.Cost(); got > in.Budget()+1e-9 {
		t.Fatalf("solution cost %v exceeds budget %v", got, in.Budget())
	}
}

func TestSolveCtxExpiredDeadlineReturnsFast(t *testing.T) {
	in := anytimeInstance(1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res := SolveCtx(ctx, in, Options{Seed: 1})
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("expired-context solve took %v, want < 10ms", elapsed)
	}
	if res.Status != guard.DeadlineExceeded {
		t.Errorf("Status = %v, want DeadlineExceeded", res.Status)
	}
	if res.Err == nil {
		t.Error("Err = nil on a deadline-exceeded run")
	}
	checkFeasibleResult(t, in, res)
}

func TestSolveCtxGenerousDeadlineMatchesSolve(t *testing.T) {
	in := anytimeInstance(2)
	plain := Solve(in, Options{Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res := SolveCtx(ctx, in, Options{Seed: 1})
	if res.Status != guard.Complete {
		t.Fatalf("Status = %v (err %v), want Complete", res.Status, res.Err)
	}
	if res.Utility != plain.Utility || res.Cost != plain.Cost {
		t.Errorf("generous deadline diverged: utility %v/%v, cost %v/%v",
			res.Utility, plain.Utility, res.Cost, plain.Cost)
	}
}

func TestSolveCtxCancelMidSolveStaysFeasible(t *testing.T) {
	in := anytimeInstance(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fire the cancellation from inside the solver, right at a phase start.
	guard.Arm("core.phase", guard.CancelFault(cancel))
	defer guard.DisarmAll()
	res := SolveCtx(ctx, in, Options{Seed: 1})
	if res.Status != guard.Canceled {
		t.Errorf("Status = %v, want Canceled", res.Status)
	}
	checkFeasibleResult(t, in, res)
}

func TestSolveCtxShortDeadlineStillYieldsAPlan(t *testing.T) {
	// The degradation ladder: a 50ms deadline must still produce a sane
	// feasible plan (greedy floor at worst), not an empty panic-bail.
	in := anytimeInstance(4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res := SolveCtx(ctx, in, Options{Seed: 1})
	checkFeasibleResult(t, in, res)
	if res.Utility <= 0 {
		t.Errorf("short-deadline utility = %v, want > 0", res.Utility)
	}
}

func TestArmedPanicsSurfaceAsRecovered(t *testing.T) {
	// A panic at any injection point on the A^BCC path must surface as
	// Status Recovered with the error attached — never a crash — and the
	// returned solution must stay budget-feasible.
	for _, point := range []string{"core.phase", "knapsack.solve", "qk.restart", "mc3.solve"} {
		t.Run(point, func(t *testing.T) {
			in := anytimeInstance(5)
			guard.Arm(point, guard.PanicFault("injected: "+point))
			defer guard.DisarmAll()
			res := SolveCtx(context.Background(), in, Options{Seed: 1})
			if res.Status != guard.Recovered {
				t.Fatalf("Status = %v, want Recovered", res.Status)
			}
			if res.Err == nil {
				t.Fatal("Err = nil on a recovered run")
			}
			checkFeasibleResult(t, in, res)
		})
	}
}

func TestLegacySolveStillPanics(t *testing.T) {
	// The non-context entry points keep crash semantics only where no guard
	// exists at all; Solve delegates to SolveCtx, so its panics are now
	// contained too — verify that explicitly (a deliberate behavior change).
	in := anytimeInstance(6)
	guard.Arm("core.phase", guard.PanicFault("contained"))
	defer guard.DisarmAll()
	res := Solve(in, Options{Seed: 1})
	if res.Status != guard.Recovered {
		t.Fatalf("Solve: Status = %v, want Recovered (contained panic)", res.Status)
	}
}

func TestDegradeForDeadline(t *testing.T) {
	bg := guard.New(context.Background())
	opts, greedyOnly := degradeForDeadline(bg, Options{MaxIterations: 16}.withDefaults())
	if greedyOnly || opts.MaxIterations != 16 {
		t.Error("no deadline: options must be untouched")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	g := guard.New(ctx)
	opts, greedyOnly = degradeForDeadline(g, Options{MaxIterations: 16}.withDefaults())
	if greedyOnly {
		t.Error("150ms: want light rung, got greedy floor")
	}
	if opts.QK.Iterations > 2 || opts.MaxIterations > 4 {
		t.Errorf("150ms: options not trimmed: %+v", opts)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	g2 := guard.New(ctx2)
	if _, greedyOnly = degradeForDeadline(g2, Options{}.withDefaults()); !greedyOnly {
		t.Error("10ms: want greedy floor")
	}
}
