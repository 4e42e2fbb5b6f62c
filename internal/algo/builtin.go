package algo

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/gmc3"
	"repro/internal/model"
	"repro/internal/submod"
)

// The built-in solver table. Every algorithm selectable anywhere in the
// system — server, gateway, jobs, bccsolve, bccbench — is one entry
// here.
//
// EvalFloor values are pinned from an internal/eval run at PinSeed on
// the golden suite: each is the observed minimum utility ratio across
// all suite datasets, rounded down with a small safety margin (see
// DESIGN.md §15). Lowering one to make the gate pass is a quality
// regression by definition; raise the question in review instead.
func init() {
	MustRegister(Descriptor{
		Name:          "abcc",
		WarmStart:     true,
		Summary:       "the paper's A^BCC (Algorithm 1: pruning, knapsack + QK phases, MC3, residual rounds)",
		Tier:          "reference",
		Anytime:       true,
		Deterministic: true,
		Seeded:        true,
		Servable:      true,
		EvalFloor:     0.99,
		Run: func(ctx context.Context, in *model.Instance, p Params) (Outcome, error) {
			r := core.SolveCtx(ctx, in, core.Options{Seed: p.Seed, Warm: p.Warm})
			return Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered: r.Covered, Iterations: r.Iterations,
				Duration: r.Duration, Status: r.Status, Err: r.Err,
			}, nil
		},
	})
	MustRegister(Descriptor{
		Name:          "rand",
		Summary:       "uniformly random affordable picks (the paper's RAND baseline)",
		Tier:          "baseline",
		Deterministic: true,
		Seeded:        true,
		Servable:      true,
		EvalFloor:     0.07,
		Run: func(_ context.Context, in *model.Instance, p Params) (Outcome, error) {
			r := core.SolveRand(in, p.Seed)
			return Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered: r.Covered, Iterations: r.Iterations, Duration: r.Duration,
			}, nil
		},
	})
	MustRegister(Descriptor{
		Name:          "ig1",
		Summary:       "per-query cheapest-cover greedy (IG1 baseline)",
		Tier:          "baseline",
		Deterministic: true,
		Servable:      true,
		EvalFloor:     0.95,
		Run: func(_ context.Context, in *model.Instance, p Params) (Outcome, error) {
			r := core.SolveIG1(in)
			return Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered: r.Covered, Iterations: r.Iterations, Duration: r.Duration,
			}, nil
		},
	})
	MustRegister(Descriptor{
		Name:          "ig2",
		Summary:       "per-classifier utility-density greedy (IG2 baseline)",
		Tier:          "baseline",
		Deterministic: true,
		Servable:      true,
		EvalFloor:     0.25,
		Run: func(_ context.Context, in *model.Instance, p Params) (Outcome, error) {
			r := core.SolveIG2(in)
			return Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered: r.Covered, Iterations: r.Iterations, Duration: r.Duration,
			}, nil
		},
	})
	MustRegister(Descriptor{
		Name:          "brute",
		Summary:       "exhaustive exact reference (≤ 26 candidate classifiers)",
		Tier:          "exact",
		Deterministic: true,
		EvalFloor:     1.0,
		Run: func(_ context.Context, in *model.Instance, p Params) (Outcome, error) {
			r, err := core.BruteForce(in)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered: r.Covered, Iterations: r.Iterations, Duration: r.Duration,
			}, nil
		},
	})
	MustRegister(Descriptor{
		Name:          "gmc3",
		WarmStart:     true,
		Summary:       "cheapest classifier set reaching a utility target (A^GMC3)",
		Tier:          "reference",
		Anytime:       true,
		Deterministic: true,
		NeedsTarget:   true,
		Seeded:        true,
		Servable:      true,
		IgnoresBudget: true,
		EvalFloor:     0.58,
		Run: func(ctx context.Context, in *model.Instance, p Params) (Outcome, error) {
			r := gmc3.SolveCtx(ctx, in, p.Target, gmc3.Options{Seed: p.Seed, Warm: p.Warm})
			achieved := r.Achieved
			return Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered: coveredCount(r.Solution), Iterations: r.Iterations,
				Duration: r.Duration, Status: r.Status, Err: r.Err,
				Achieved: &achieved,
			}, nil
		},
	})
	MustRegister(Descriptor{
		Name:          "ecc",
		Summary:       "best utility-per-cost classifier set (A^ECC)",
		Tier:          "reference",
		Anytime:       true,
		Deterministic: true,
		Servable:      true,
		IgnoresBudget: true,
		EvalFloor:     0.02,
		Run: func(ctx context.Context, in *model.Instance, p Params) (Outcome, error) {
			r := ecc.SolveCtx(ctx, in)
			out := Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered:  coveredCount(r.Solution),
				Duration: r.Duration, Status: r.Status, Err: r.Err,
			}
			if !math.IsInf(r.Ratio, 0) {
				ratio := r.Ratio
				out.Ratio = &ratio
			}
			return out, nil
		},
	})
	MustRegister(Descriptor{
		Name:          "submod",
		WarmStart:     true,
		Summary:       "budgeted submodular lazy greedy (cost-scaled + unscaled passes, max of both)",
		Tier:          "fast-approx",
		Anytime:       true,
		Deterministic: true,
		Servable:      true,
		EvalFloor:     0.97,
		Run: func(ctx context.Context, in *model.Instance, p Params) (Outcome, error) {
			r := submod.SolveCtx(ctx, in, submod.Options{Warm: p.Warm})
			return Outcome{
				Solution: r.Solution, Utility: r.Utility, Cost: r.Cost,
				Covered: r.Covered, Iterations: r.Steps,
				Duration: r.Duration, Status: r.Status, Err: r.Err,
			}, nil
		},
	})
}

func coveredCount(sol *model.Solution) int {
	if sol == nil {
		return 0
	}
	return len(sol.CoveredQueries())
}
