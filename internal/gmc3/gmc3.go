// Package gmc3 implements the Generalized MC3 problem (Definition 5.1 of
// the paper): given queries, utilities, classifier costs and a target
// utility T, find a classifier set of minimum cost whose covered queries
// have total utility at least T.
//
// The proposed algorithm A^GMC3 (Theorem 5.3) wraps the BCC solver: guess
// a budget B, repeatedly run A^BCC on the residual query set with budget B
// and commit its selection, until the accumulated utility reaches T; an
// outer binary search (seeded by the MC3 full-coverage cost, as in §6.3)
// finds the budget guess minimizing the final cost. The package also
// provides the RAND(G), IG1(G) and IG2(G) baselines: identical to their
// BCC counterparts except that the stopping condition is reaching the
// utility target rather than exhausting a budget.
package gmc3

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/mc3"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/propset"
	"repro/internal/qk"
)

// Options tunes A^GMC3.
type Options struct {
	// Seed drives all randomness. Default 1.
	Seed int64
	// Warm seeds the run with a previously found plan — the incumbent of
	// an earlier checkpoint (internal/jobs). It is installed as the
	// initial best-effort result (and, when it already reaches the
	// target, as the initial cheapest achieving result after trimming),
	// so a warm-started run never reports less utility — or, once
	// achieving, higher cost — than the incumbent.
	Warm []propset.Set
}

const (
	// binarySearchSteps is the number of outer budget-guess halvings.
	binarySearchSteps = 8
	// maxInnerRounds caps the per-guess A^BCC repetitions.
	maxInnerRounds = 8
)

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result reports a GMC3 run.
type Result struct {
	Solution *model.Solution
	// Cost is the total construction cost — the GMC3 objective.
	Cost float64
	// Utility is the achieved covered utility.
	Utility float64
	// Achieved reports whether Utility ≥ the target.
	Achieved bool
	// Iterations counts inner A^BCC runs (A^GMC3) or selection steps
	// (baselines).
	Iterations int
	// Duration is the wall-clock solve time.
	Duration time.Duration
	// Status reports how the run ended; non-Complete results still carry
	// the best solution found (which may miss the target).
	Status guard.Status
	// Err is the context error or contained panic for a non-Complete run.
	Err error
}

func resultFrom(t *cover.Tracker, target float64, iters int, start time.Time) Result {
	return Result{
		Solution:   t.Solution(),
		Cost:       t.Cost(),
		Utility:    t.Utility(),
		Achieved:   t.Utility() >= target-1e-9,
		Iterations: iters,
		Duration:   time.Since(start),
	}
}

// Solve runs A^GMC3 on the instance's queries with the given utility
// target. The instance's own budget field is ignored.
func Solve(in *model.Instance, target float64, opts Options) Result {
	return SolveCtx(context.Background(), in, target, opts)
}

// SolveCtx is Solve under a context: on deadline expiry or cancellation it
// returns the cheapest target-achieving solution found so far — or, when
// no budget guess achieved the target yet, the highest-utility partial
// solution — with Result.Status reporting why it stopped. Panics in the
// solver stack (including inner A^BCC runs) surface as Status Recovered.
func SolveCtx(ctx context.Context, in *model.Instance, target float64, opts Options) (res Result) {
	start := time.Now()
	opts = opts.withDefaults()
	g := guard.New(ctx)
	rec := obs.FromContext(ctx)

	best := Result{Cost: math.Inf(1)}
	bestEffort := Result{Solution: model.NewSolution(in)}
	iters := 0
	finish := func() Result {
		r := best
		if math.IsInf(r.Cost, 1) {
			r = bestEffort
		}
		r.Iterations = iters
		r.Duration = time.Since(start)
		r.Status = g.Status()
		r.Err = g.Err()
		return r
	}
	defer func() {
		if p := recover(); p != nil {
			g.NotePanic(p)
			res = finish()
		}
	}()
	if g.Tripped() {
		return finish()
	}

	// Warm start: adopt the checkpointed incumbent as the floor before
	// any search runs, so even an immediately-tripped resumed run keeps
	// prior progress.
	if len(opts.Warm) > 0 {
		t := cover.New(in)
		for _, w := range opts.Warm {
			t.Add(w)
		}
		if t.Utility() >= target-1e-9 {
			trimToTarget(t, target)
			best = resultFrom(t, target, 0, start)
		}
		bestEffort = resultFrom(t, target, 0, start)
	}

	// Upper bound: the MC3 full-coverage cost (covers every coverable
	// query, hence reaches any achievable target).
	all := make([]int, in.NumQueries())
	for qi := range all {
		all[qi] = qi
	}
	full := mc3.Solve(in, all)
	hi := full.Cost
	if hi <= 0 {
		hi = 1
	}

	try := func(budget float64) Result {
		t := cover.New(in)
		rounds := 0
		for t.Utility() < target-1e-9 && rounds < maxInnerRounds && !g.Tripped() {
			guard.Inject("gmc3.residual")
			t0 := rec.Start()
			residual := in.NumQueries() - t.CoveredCount()
			gain := runResidualBCC(ctx, g, in, t, budget, opts)
			rec.End(obs.StageGMC3Residual, t0, residual)
			rounds++
			iters++
			if gain == 0 {
				break // no progress at this budget
			}
		}
		if t.Utility() >= target-1e-9 {
			trimToTarget(t, target)
		}
		r := resultFrom(t, target, rounds, start)
		if r.Utility > bestEffort.Utility ||
			(r.Utility == bestEffort.Utility && r.Cost < bestEffort.Cost) {
			bestEffort = r
		}
		return r
	}

	// The full-coverage budget always succeeds (when the target is
	// achievable at all).
	if r := try(hi); r.Achieved && r.Cost < best.Cost {
		best = r
	}
	// Binary search for the cheapest successful budget guess.
	lo, hiB := 0.0, hi
	for step := 0; step < binarySearchSteps && !g.Tripped(); step++ {
		mid := (lo + hiB) / 2
		if mid <= 0 {
			break
		}
		r := try(mid)
		if r.Achieved {
			if r.Cost < best.Cost {
				best = r
			}
			hiB = mid
		} else {
			lo = mid
		}
	}
	// Greedy floors: trim the IG1(G)/IG2(G) solutions to the target and
	// adopt whichever is cheapest. As with A^BCC's floor (DESIGN.md), this
	// keeps A^GMC3 from trailing the adaptive greedies by slivers on
	// unstructured workloads.
	if !g.Tripped() {
		for _, seed := range []Result{SolveIG1(in, target), SolveIG2(in, target)} {
			if !seed.Achieved {
				continue
			}
			t := cover.New(in)
			for _, c := range seed.Solution.Classifiers() {
				t.Add(c.Props)
			}
			trimToTarget(t, target)
			if r := resultFrom(t, target, iters, start); r.Achieved && r.Cost < best.Cost {
				best = r
			}
		}
	}
	if math.IsInf(best.Cost, 1) && !g.Tripped() {
		// Target unreachable: return the full-coverage solution.
		t := cover.New(in)
		for _, c := range full.Classifiers {
			t.Add(c)
		}
		best = resultFrom(t, target, iters, start)
	}
	return finish()
}

// trimToTarget reverse-deletes selected classifiers (costliest first) as
// long as the covered utility stays at or above the target, removing the
// budget-guess overshoot that A^BCC's utility-maximizing inner runs incur.
// Each trial removal is incremental (only the affected queries are
// re-evaluated, and rolled back by re-adding on failure).
func trimToTarget(t *cover.Tracker, target float64) {
	sel := t.SelectedSets()
	in := t.Instance()
	// Costliest first.
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && in.Cost(sel[j]) > in.Cost(sel[j-1]); j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	for _, c := range sel {
		if in.Cost(c) == 0 {
			continue
		}
		t.Remove(c)
		if t.Utility() < target-1e-9 {
			t.Add(c)
		}
	}
}

// runResidualBCC runs A^BCC with the given budget on the instance
// restricted to the queries not yet covered by t, committing the resulting
// selection into t. It returns the utility gained. A Recovered status from
// the inner run is propagated onto the outer guard so the caller's result
// reports it.
func runResidualBCC(ctx context.Context, g *guard.Guard, in *model.Instance, t *cover.Tracker, budget float64, opts Options) float64 {
	b := model.NewBuilderWithUniverse(in.Universe())
	any := false
	for qi, q := range in.Queries() {
		if !t.Covered(qi) {
			b.AddQuerySet(q.Props, q.Utility)
			any = true
		}
	}
	if !any {
		return 0
	}
	// Costs: already-selected classifiers are free in the residual.
	b.SetDefaultCost(func(s propset.Set) float64 {
		if t.Has(s) {
			return 0
		}
		return in.Cost(s)
	})
	sub, err := b.Instance(budget)
	if err != nil {
		return 0
	}
	// The inner A^BCC runs many times across budget guesses; cheaper
	// per-run settings trade a little per-guess quality for a much wider
	// search, which is the better bargain inside the binary search.
	res := core.SolveCtx(ctx, sub, core.Options{Seed: opts.Seed, MaxIterations: 6, QK: qk.Options{Iterations: 4}})
	if res.Status == guard.Recovered {
		g.NoteError(res.Err)
	}
	before := t.Utility()
	for _, c := range res.Solution.Classifiers() {
		t.Add(c.Props)
	}
	return t.Utility() - before
}

// SolveRand is RAND(G): select uniformly random classifiers until the
// target utility is reached (or no candidates remain). It runs RAND's
// shared selection loop (core.RandLoop) without a budget.
func SolveRand(in *model.Instance, target float64, seed int64) Result {
	start := time.Now()
	t := cover.New(in)
	steps := core.RandLoop(t, seed, false, reached(t, target), nil)
	return resultFrom(t, target, steps, start)
}

// SolveIG1 is IG1(G): repeatedly select the cheapest cover of the query
// with the best utility-to-cost ratio, until the target is reached. It
// runs IG1's shared selection loop (core.IG1Loop) without a budget.
func SolveIG1(in *model.Instance, target float64) Result {
	start := time.Now()
	t := cover.New(in)
	steps := core.IG1Loop(t, false, reached(t, target), nil)
	return resultFrom(t, target, steps, start)
}

// SolveIG2 is IG2(G): repeatedly select the single classifier with the
// best (uncovered-utility containing it) / cost ratio, until the target is
// reached. It runs IG2's shared selection loop (core.IG2Loop) without a
// budget.
func SolveIG2(in *model.Instance, target float64) Result {
	start := time.Now()
	t := cover.New(in)
	steps := core.IG2Loop(t, false, reached(t, target), nil)
	return resultFrom(t, target, steps, start)
}

// reached is the baselines' stopping rule: the tracker's covered utility
// has reached the target.
func reached(t *cover.Tracker, target float64) func() bool {
	return func() bool { return t.Utility() >= target-1e-9 }
}
