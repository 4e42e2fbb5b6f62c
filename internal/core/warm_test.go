package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/propset"
)

// warmSets extracts a result's plan as warm-start input.
func warmSets(res Result) []propset.Set {
	var out []propset.Set
	for _, c := range res.Solution.Classifiers() {
		out = append(out, c.Props)
	}
	return out
}

// A warm-started run under a near-exhausted deadline must keep the
// incumbent's utility: the checkpoint/resume path of internal/jobs
// depends on slices never regressing.
func TestWarmStartKeepsIncumbentUnderTightDeadline(t *testing.T) {
	in := anytimeInstance(7)
	incumbent := Solve(in, Options{Seed: 1})
	if incumbent.Utility <= 0 {
		t.Fatal("incumbent solved nothing; instance too easy to test warm start")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	res := SolveCtx(ctx, in, Options{Seed: 1, Warm: warmSets(incumbent)})
	checkFeasibleResult(t, in, res)
	if res.Utility < incumbent.Utility-1e-9 {
		t.Errorf("warm-started utility %v regressed below incumbent %v", res.Utility, incumbent.Utility)
	}
}

// A warm run whose context is already done on entry must still return
// the incumbent: the deadline check comes after the restore.
func TestWarmStartKeepsIncumbentOnDoneContext(t *testing.T) {
	in := anytimeInstance(7)
	incumbent := Solve(in, Options{Seed: 1})
	if incumbent.Utility <= 0 {
		t.Fatal("incumbent solved nothing; instance too easy to test warm start")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SolveCtx(ctx, in, Options{Seed: 1, Warm: warmSets(incumbent)})
	if res.Status != guard.Canceled {
		t.Errorf("Status = %v, want Canceled", res.Status)
	}
	checkFeasibleResult(t, in, res)
	if res.Utility < incumbent.Utility-1e-9 {
		t.Errorf("warm run on a done context returned utility %v, below incumbent %v", res.Utility, incumbent.Utility)
	}
}

// Warm sets that no longer fit the budget are skipped, keeping the run
// feasible rather than failing.
func TestWarmStartSkipsOverBudgetSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randomInstance(rng, 20, 120, 3, 40)
	incumbent := Solve(in, Options{Seed: 1})

	// Re-solve the same queries under a much smaller budget, seeded with
	// the (now partly unaffordable) old plan.
	tight := in.WithBudget(in.Budget() / 8)
	res := Solve(tight, Options{Seed: 1, Warm: warmSets(incumbent)})
	checkFeasibleResult(t, tight, res)
	if res.Cost > tight.Budget()+1e-9 {
		t.Errorf("warm start blew the reduced budget: cost %v > %v", res.Cost, tight.Budget())
	}
}
