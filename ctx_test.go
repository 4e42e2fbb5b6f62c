package bcc

import (
	"context"
	"testing"
	"time"

	"repro/internal/guard"
)

func ctxTestInstance(t *testing.T) *Instance {
	t.Helper()
	b := NewBuilder()
	b.AddQuery(8, "x", "y", "z")
	b.AddQuery(4, "x", "z")
	b.AddQuery(2, "x", "y")
	b.AddQuery(1, "y")
	b.SetCost(5, "x")
	b.SetCost(3, "y")
	b.SetCost(3, "z")
	b.SetCost(4, "x", "z")
	in, err := b.Instance(8)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

// mustRun is Run, failing the test on an error return.
func mustRun(t *testing.T, ctx context.Context, in *Instance, name string, p Params) Outcome {
	t.Helper()
	out, err := Run(ctx, in, name, p)
	if err != nil {
		t.Fatalf("Run %s: %v", name, err)
	}
	return out
}

// Every context-aware façade entry point must honor an already-expired
// deadline: return promptly with DeadlineExceeded and a non-nil (possibly
// empty) solution.
func TestCtxEntryPointsHonorExpiredDeadline(t *testing.T) {
	in := ctxTestInstance(t)
	ctx := expiredCtx(t)

	check := func(name string, status Status, sol *Solution) {
		t.Helper()
		if status != DeadlineExceeded {
			t.Errorf("%s: Status = %v, want DeadlineExceeded", name, status)
		}
		if sol == nil {
			t.Errorf("%s: nil Solution on expired deadline", name)
		}
	}
	r1 := SolveCtx(ctx, in, Options{})
	check("SolveCtx", r1.Status, r1.Solution)
	r2 := mustRun(t, ctx, in, "gmc3", Params{Target: 5})
	check("Run gmc3", r2.Status, r2.Solution)
	r3 := mustRun(t, ctx, in, "ecc", Params{})
	check("Run ecc", r3.Status, r3.Solution)
	r4 := SolvePartialCtx(ctx, in, GainLinear)
	check("SolvePartialCtx", r4.Status, r4.Solution)
	r5 := SolveOverlapCtx(ctx, in, OverlapCostModel{})
	check("SolveOverlapCtx", r5.Status, r5.Solution)
}

func TestCtxEntryPointsCompleteWithBackground(t *testing.T) {
	in := ctxTestInstance(t)
	ctx := context.Background()

	if r := SolveCtx(ctx, in, Options{}); r.Status != Complete || r.Err != nil {
		t.Errorf("SolveCtx: status=%v err=%v", r.Status, r.Err)
	}
	if r := mustRun(t, ctx, in, "gmc3", Params{Target: 5}); r.Status != Complete || r.Err != nil {
		t.Errorf("Run gmc3: status=%v err=%v", r.Status, r.Err)
	}
	if r := mustRun(t, ctx, in, "ecc", Params{}); r.Status != Complete || r.Err != nil {
		t.Errorf("Run ecc: status=%v err=%v", r.Status, r.Err)
	}
	if r := SolvePartialCtx(ctx, in, GainLinear); r.Status != Complete || r.Err != nil {
		t.Errorf("SolvePartialCtx: status=%v err=%v", r.Status, r.Err)
	}
	if r := SolveOverlapCtx(ctx, in, OverlapCostModel{}); r.Status != Complete || r.Err != nil {
		t.Errorf("SolveOverlapCtx: status=%v err=%v", r.Status, r.Err)
	}
}

// Armed panics inside the extension solvers must surface as Recovered
// results with a usable solution, never crash the caller. (The A^BCC-path
// points are covered in internal/core.)
func TestExtensionSolversContainArmedPanics(t *testing.T) {
	in := ctxTestInstance(t)
	ctx := context.Background()

	check := func(name string, status Status, err error, sol *Solution) {
		t.Helper()
		if status != Recovered {
			t.Errorf("%s: Status = %v, want Recovered", name, status)
		}
		if err == nil {
			t.Errorf("%s: Err = nil on a recovered run", name)
		}
		if sol == nil {
			t.Errorf("%s: nil Solution on a recovered run", name)
		}
	}

	guard.Arm("gmc3.residual", guard.PanicFault("boom"))
	r1 := mustRun(t, ctx, in, "gmc3", Params{Target: 5})
	guard.DisarmAll()
	check("Run gmc3", r1.Status, r1.Err, r1.Solution)

	guard.Arm("ecc.solve", guard.PanicFault("boom"))
	r2 := mustRun(t, ctx, in, "ecc", Params{})
	guard.DisarmAll()
	check("Run ecc", r2.Status, r2.Err, r2.Solution)

	guard.Arm("partial.solve", guard.PanicFault("boom"))
	r3 := SolvePartialCtx(ctx, in, GainLinear)
	guard.DisarmAll()
	check("SolvePartialCtx", r3.Status, r3.Err, r3.Solution)

	guard.Arm("overlap.round", guard.PanicFault("boom"))
	r4 := SolveOverlapCtx(ctx, in, OverlapCostModel{Label: func(PropID) float64 { return 1 }})
	guard.DisarmAll()
	check("SolveOverlapCtx", r4.Status, r4.Err, r4.Solution)
}

func TestSolveCtxMatchesSolve(t *testing.T) {
	in := ctxTestInstance(t)
	plain := Solve(in, Options{Seed: 1})
	ctxRes := SolveCtx(context.Background(), in, Options{Seed: 1})
	if plain.Utility != ctxRes.Utility || plain.Cost != ctxRes.Cost {
		t.Errorf("SolveCtx(Background) diverged from Solve: utility %v/%v cost %v/%v",
			ctxRes.Utility, plain.Utility, ctxRes.Cost, plain.Cost)
	}
}
