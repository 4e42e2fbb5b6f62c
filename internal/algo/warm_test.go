package algo

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/propset"
)

// The incremental re-solve subsystem routes warm plans only to solvers
// that declare WarmStart; pin the set so adding a solver forces a
// decision about its warm contract.
func TestWarmStartRegistry(t *testing.T) {
	want := map[string]bool{"abcc": true, "gmc3": true, "submod": true}
	for _, name := range Names() {
		d, _ := Lookup(name)
		if d.WarmStart != want[name] {
			t.Errorf("%s: WarmStart = %v, want %v", name, d.WarmStart, want[name])
		}
	}
}

// warmSeeds builds the adversarial Warm inputs every WarmStart solver
// must survive: a stale set outside CL, a plan that overshoots the
// budget, duplicates, and an empty set.
func warmSeeds(in *model.Instance) map[string][]propset.Set {
	u := in.Universe()
	// A conjunction of many properties is (almost surely) no query's
	// subset, so its cost is +Inf — the "stale plan after drift" case.
	stale := make(propset.Set, 0, 12)
	for id := 0; id < u.Size() && len(stale) < 12; id++ {
		stale = append(stale, propset.ID(id))
	}
	// An oversized plan: the solution of a 3x-budget solve, whose total
	// cost exceeds this instance's budget.
	rich := core.Solve(in.WithBudget(in.Budget()*3), core.Options{Seed: 1})
	var oversized []propset.Set
	for _, c := range rich.Solution.Classifiers() {
		oversized = append(oversized, c.Props)
	}
	good := core.SolveIG1(in)
	var dup []propset.Set
	for _, c := range good.Solution.Classifiers() {
		dup = append(dup, c.Props, c.Props) // every set twice
	}
	return map[string][]propset.Set{
		"stale":     {stale},
		"oversized": oversized,
		"dup":       dup,
		"empty-set": {nil, {}},
		"mixed":     append([]propset.Set{stale, nil}, dup...),
	}
}

// TestWarmContract runs every WarmStart solver against every
// adversarial seed: no error, no panic, budget feasibility (unless the
// family ignores budgets), and utility no worse than the cold IG1
// greedy floor — a garbage warm seed must never make a solver worse
// than not warming at all.
func TestWarmContract(t *testing.T) {
	in := dataset.Synthetic(2, 120, 80)
	floor := core.SolveIG1(in).Utility
	if floor <= 0 {
		t.Fatal("IG1 floor not positive; instance unusable")
	}
	target := floor // a reachable utility target for gmc3
	seeds := warmSeeds(in)

	for _, name := range Names() {
		d, _ := Lookup(name)
		if !d.WarmStart {
			continue
		}
		for label, warm := range seeds {
			t.Run(name+"/"+label, func(t *testing.T) {
				out, err := d.Run(context.Background(), in, Params{
					Seed: 1, Target: target, Warm: warm,
				})
				if err != nil {
					t.Fatalf("warm run rejected: %v", err)
				}
				if out.Err != nil {
					t.Fatalf("warm run failed: status=%v err=%v", out.Status, out.Err)
				}
				if !d.IgnoresBudget && out.Cost > in.Budget()+1e-9 {
					t.Errorf("warm cost %v exceeds budget %v", out.Cost, in.Budget())
				}
				if d.IgnoresBudget {
					// Target-seeking: the contract is reaching the target,
					// not the budgeted floor.
					if out.Achieved != nil && !*out.Achieved {
						t.Errorf("warm run missed target %v (utility %v)", target, out.Utility)
					}
					return
				}
				if out.Utility < floor {
					t.Errorf("warm utility %v below cold IG1 floor %v", out.Utility, floor)
				}
			})
		}
	}
}

// registerTemp registers d for the length of the test and returns the
// descriptor as Lookup serves it.
func registerTemp(t *testing.T, d Descriptor) Descriptor {
	t.Helper()
	if err := Register(d); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		delete(registry, d.Name)
	})
	got, _ := Lookup(d.Name)
	return got
}

// TestWarmRunsHeldToIG1 pins the registry's floor: a budgeted WarmStart
// run that lands below the cold IG1 plan, or ties it at a higher cost,
// answers with that plan and Floored, keeping the solver's status and
// error. A tie at equal cost keeps the solver's plan, and a cold run, a
// rejected run and an IgnoresBudget run pass through untouched.
func TestWarmRunsHeldToIG1(t *testing.T) {
	in := dataset.Synthetic(2, 120, 80)
	ig := core.SolveIG1(in)
	var (
		stub   Outcome
		runErr error
	)
	run := func(context.Context, *model.Instance, Params) (Outcome, error) { return stub, runErr }
	held := registerTemp(t, Descriptor{Name: "test-held", WarmStart: true, Run: run})
	exempt := registerTemp(t, Descriptor{Name: "test-exempt", WarmStart: true, IgnoresBudget: true, Run: run})
	ctx := context.Background()
	warm := Params{Warm: []propset.Set{ig.Solution.Classifiers()[0].Props}}
	empty := Outcome{Solution: model.NewSolution(in), Status: guard.Canceled, Err: context.Canceled}
	tie := Outcome{Solution: model.NewSolution(in), Utility: ig.Utility, Cost: ig.Cost}
	dearTie := tie
	dearTie.Cost++

	for name, below := range map[string]Outcome{"below": empty, "dearer tie": dearTie} {
		stub = below
		out, err := held.Run(ctx, in, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Floored || out.Utility != ig.Utility || out.Cost != ig.Cost || out.Covered != ig.Covered {
			t.Errorf("%s: floored=%v utility=%v cost=%v covered=%d, want the IG1 plan (%v, %v, %d)",
				name, out.Floored, out.Utility, out.Cost, out.Covered, ig.Utility, ig.Cost, ig.Covered)
		}
		if out.Solution.Cost() != ig.Cost {
			t.Errorf("%s: floored plan costs %v, want the IG1 plan's %v", name, out.Solution.Cost(), ig.Cost)
		}
		if out.Status != below.Status || !errors.Is(out.Err, below.Err) {
			t.Errorf("%s: floored run reports status %v err %v, want the solver's %v %v", name, out.Status, out.Err, below.Status, below.Err)
		}
	}

	stub = tie
	if out, _ := held.Run(ctx, in, warm); out.Floored {
		t.Error("a warm run tied with IG1 at equal cost was floored")
	}
	stub = empty
	for name, run := range map[string]func() (Outcome, error){
		"cold":           func() (Outcome, error) { return held.Run(ctx, in, Params{}) },
		"ignores-budget": func() (Outcome, error) { return exempt.Run(ctx, in, warm) },
	} {
		out, _ := run()
		if out.Floored || out.Utility != 0 {
			t.Errorf("%s run was floored: floored=%v utility=%v", name, out.Floored, out.Utility)
		}
	}
	runErr = errors.New("rejected")
	if out, err := held.Run(ctx, in, warm); !errors.Is(err, runErr) || out.Floored || out.Utility != 0 {
		t.Errorf("rejected warm run: floored=%v utility=%v err=%v, want it untouched", out.Floored, out.Utility, err)
	}
}
