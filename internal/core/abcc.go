package core

import (
	"context"
	"math"
	"time"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/knapsack"
	"repro/internal/mc3"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/propset"
	"repro/internal/qk"
)

// Options tunes the A^BCC solver. The zero value gives the defaults used
// in the experimental study.
type Options struct {
	// Seed drives all randomness (QK bipartitions) deterministically.
	// Default 1.
	Seed int64
	// MaxIterations caps the residual-problem loop (lines 4–6 of
	// Algorithm 1). Default 16.
	MaxIterations int
	// DisablePruning skips step 1 of Algorithm 1 (both the
	// replaceable-classifier rule and the leverage-score rule). Used by
	// the Figure 3e/3f ablation.
	DisablePruning bool
	// DisableMC3 skips the MC3 local-search improvement (line 3). Used by
	// ablation benchmarks.
	DisableMC3 bool
	// DisableGreedyFloor skips the final best-of comparison against the
	// refined IG1 greedy (used by ablation benchmarks). With the floor
	// enabled (default), a cold A^BCC run never returns less utility
	// than IG1. Warm fast-path runs start no floor; the solver registry
	// (internal/algo) holds every warm run to the IG1 plan instead.
	DisableGreedyFloor bool
	// Warm seeds the run with a previously found feasible plan — the
	// incumbent of an earlier checkpoint (internal/jobs) or a prior
	// anytime slice. Sets that fit the remaining budget are selected
	// before anything else, the deadline check included, so a
	// warm-started run never returns less utility than the incumbent,
	// even on a context that is already done: phases and greedy fills
	// only add, and MC3 only adopts strictly cheaper re-coverings. Sets
	// that no longer fit (e.g. after a budget override) are skipped, not
	// fatal.
	Warm []propset.Set
	// warmFast marks a run whose warm seed restored most of the coverage:
	// the solver then runs only residual work (see SolveCtx). Set
	// internally — never by callers — so cold runs stay byte-identical.
	warmFast bool
	// QK tunes the inner Quadratic Knapsack solver.
	QK qk.Options
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 16
	}
	if o.QK.Seed == 0 {
		o.QK.Seed = o.Seed
	}
	return o
}

const (
	// epsilon is the knapsack FPTAS precision for the BCC(1) subproblem.
	epsilon = 0.05
	// leverageKeep is the fraction of QK-graph weight the leverage-score
	// pruning must preserve; the lowest-score nodes carrying at most
	// (1 − leverageKeep) of the total incident weight are dropped. It is
	// typed so that 1 − leverageKeep rounds as a float64 subtraction at
	// run time does.
	leverageKeep float64 = 0.95
)

// Graceful-degradation ladder: with this little deadline budget left the
// solver cuts optional work (degradeLight) or skips straight to the IG1
// greedy floor (degradeFloor). Thresholds are deliberately coarse — they
// only fire on deadlines far below a normal solve, so generous deadlines
// keep byte-identical results.
const (
	degradeLight = 250 * time.Millisecond
	degradeFloor = 50 * time.Millisecond
)

// degradeForDeadline inspects the remaining deadline budget and returns
// options trimmed to fit, plus whether only the greedy floor should run.
func degradeForDeadline(g *guard.Guard, opts Options) (Options, bool) {
	left, ok := g.Remaining()
	if !ok || left >= degradeLight {
		return opts, false
	}
	if left < degradeFloor {
		return opts, true
	}
	// Light rung: fewer restarts and rounds, the same pipeline.
	if opts.QK.Iterations == 0 || opts.QK.Iterations > 2 {
		opts.QK.Iterations = 2
	}
	if opts.MaxIterations > 4 {
		opts.MaxIterations = 4
	}
	return opts, false
}

// Result reports a solver run: the solution plus accounting useful to the
// experiment harness.
type Result struct {
	Solution *model.Solution
	// Utility is the total utility of the covered queries.
	Utility float64
	// Cost is the total construction cost of the selected classifiers.
	Cost float64
	// Covered is the number of covered queries.
	Covered int
	// Iterations is the number of residual-loop rounds executed (A^BCC)
	// or selection steps (baselines).
	Iterations int
	// Pruned is the number of candidate classifiers removed by
	// preprocessing (A^BCC only).
	Pruned int
	// Duration is the wall-clock solve time.
	Duration time.Duration
	// Status reports how the run ended: Complete, DeadlineExceeded,
	// Canceled, or Recovered (a contained panic). On any non-Complete
	// status the Solution is still the best feasible one found.
	Status guard.Status
	// Err is the context error or the contained panic when Status is not
	// Complete.
	Err error
}

func resultFrom(t *cover.Tracker, iterations, pruned int, start time.Time) Result {
	return Result{
		Solution:   t.Solution(),
		Utility:    t.Utility(),
		Cost:       t.Cost(),
		Covered:    t.CoveredCount(),
		Iterations: iterations,
		Pruned:     pruned,
		Duration:   time.Since(start),
	}
}

// Solve runs A^BCC (Algorithm 1) on the instance: prune candidate
// classifiers, solve the BCC(1) and BCC(2) subproblems with half the
// budget, improve cost-wise with MC3, then iterate on residual problems
// with the full remaining budget until no further utility is gained.
func Solve(in *model.Instance, opts Options) Result {
	return SolveCtx(context.Background(), in, opts)
}

// SolveCtx is Solve under a context: on deadline expiry or cancellation
// the solver stops at the next guard check and returns the best feasible
// solution found so far, with Result.Status reporting why it stopped.
// Panics anywhere in the solver stack are contained and reported as
// Status Recovered. With a background context the result is identical to
// Solve.
func SolveCtx(ctx context.Context, in *model.Instance, opts Options) (res Result) {
	start := time.Now()
	opts = opts.withDefaults()
	g := guard.New(ctx)
	// Stage tracing: a nil recorder (no -trace, no /metrics interest in
	// stage splits) keeps every instrumentation point at one branch.
	rec := obs.FromContext(ctx)
	opts.QK.Trace = rec

	var t *cover.Tracker
	var floor *floorRun
	iterations, pruned := 0, 0
	finish := func() Result {
		// Every path out of SolveCtx, the recover below included, comes
		// through here, so no floor goroutine outlives the call.
		if f := floor; f != nil {
			floor = nil
			<-f.done
			iterations += f.iterations
			if f.t != nil && (f.t.Utility() > t.Utility() ||
				(f.t.Utility() == t.Utility() && f.t.Cost() < t.Cost())) {
				t = f.t
			}
		}
		var r Result
		if t != nil {
			r = resultFrom(t, iterations, pruned, start)
		} else {
			r = Result{Solution: model.NewSolution(in), Duration: time.Since(start)}
		}
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
	t = cover.New(in)
	// Free classifiers are always selected (paper §4.1 preprocessing).
	for ci, c := range in.Classifiers() {
		if c.Cost == 0 {
			t.AddIndex(ci)
		}
	}
	// Warm start: restore the incumbent before the deadline check, so
	// every rung of the degradation ladder keeps prior progress, a
	// context that is done on entry included.
	warmed := 0
	for _, w := range opts.Warm {
		if t.Has(w) {
			continue
		}
		if t.Cost()+in.Cost(w) <= in.Budget()+1e-9 {
			if t.Add(w) {
				warmed++
			}
		}
	}
	if g.Tripped() {
		return finish()
	}
	var greedyOnly bool
	opts, greedyOnly = degradeForDeadline(g, opts)

	if greedyOnly {
		// Bottom rung of the ladder: almost no deadline budget left, so
		// skip the knapsack/QK machinery entirely — the IG1 greedy still
		// yields a sane, feasible plan.
		iterations += IG1Fill(g, t)
		return finish()
	}

	// Incremental fast path: when the warm seed already consumed most of
	// the budget, the run's only real job is the residual — whatever
	// cheap additions still fit the unspent sliver (plus what MC3 frees).
	// Candidate pruning is skipped (the per-phase budget filter in
	// phaseMaxCost shrinks the subproblems far harder than the pruning
	// rules would), QK restarts are trimmed as on the light degradation
	// rung, and no greedy floor runs: the solver registry holds warm runs
	// to the IG1 plan (internal/algo). A warm seed that spent little gets
	// the full cold pipeline: correctness first, speed only when the seed
	// earned it.
	opts.warmFast = warmed > 0 && t.Cost() >= in.Budget()/2
	if opts.warmFast && (opts.QK.Iterations == 0 || opts.QK.Iterations > 2) {
		opts.QK.Iterations = 2
	}

	var allowed []bool
	if !opts.DisablePruning && !opts.warmFast {
		t0 := rec.Start()
		allowed, pruned = pruneClassifiers(g, t)
		rec.End(obs.StagePrune, t0, pruned)
	}

	if !opts.DisableGreedyFloor && !opts.warmFast && !g.Tripped() {
		floor = startFloor(g, rec, in, allowed, opts)
	}

	// Line 2: half the budget for the first round.
	phase(g, rec, t, allowed, t.Remaining()/2+t.Cost(), opts)
	iterations++
	kept := false
	if !opts.DisableMC3 {
		kept = !mc3Improve(g, rec, t)
	}
	iterations += improveLoop(g, rec, t, allowed, opts, kept)
	return finish()
}

// floorRun is A^BCC's refined greedy floor, running on its own goroutine
// beside the main pipeline. SolveCtx joins it on done and keeps its
// plan when it has higher utility, or equal utility at lower cost.
type floorRun struct {
	done chan struct{}
	// t is the floor's plan, nil when the floor panicked.
	t *cover.Tracker
	// iterations counts the floor's residual rounds.
	iterations int
}

// startFloor starts the greedy floor, refined: seed a second pipeline
// with the IG1 solution, reclaim cost with MC3 and spend the freed budget
// on further residual rounds. A^BCC therefore never trails the adaptive
// per-query greedy, and usually improves on it (documented in DESIGN.md).
//
// The floor shares only the read-only instance, allowed and opts with
// the main pipeline, plus the guard and the recorder, which are safe for
// concurrent use (DESIGN.md §8). A panic in the floor is recorded on the
// guard and forfeits the floor's plan, not the run.
func startFloor(g *guard.Guard, rec *obs.Recorder, in *model.Instance, allowed []bool, opts Options) *floorRun {
	f := &floorRun{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer g.Recover()
		t0 := rec.Start()
		t2 := cover.New(in)
		IG1Fill(g, t2)
		kept := false
		if !opts.DisableMC3 {
			kept = !mc3Improve(g, rec, t2)
		}
		f.iterations = improveLoop(g, rec, t2, allowed, opts, kept)
		rec.End(obs.StageGreedyFloor, t0, t2.CoveredCount())
		f.t = t2
	}()
	return f
}

// improveLoop is lines 4–6 of Algorithm 1 plus the leftover-budget
// completion: residual rounds with the full remaining budget until neither
// the phase gains utility nor the MC3 local search frees budget, followed
// by an IG1-style fill of any stranded budget. It returns the number of
// rounds executed.
//
// kept reports that the last thing to touch t's selection was an MC3 pass
// that kept it. MC3 on a selection it already kept would keep it again
// (its result depends only on the selection), so such a pass is skipped:
// after a round whose phase added nothing (a phase changes the selection
// exactly when it gains utility), and at the end when the fill selected
// nothing, in which case the fill after it would select nothing either.
func improveLoop(g *guard.Guard, rec *obs.Recorder, t *cover.Tracker, allowed []bool, opts Options, kept bool) int {
	in := t.Instance()
	iterations := 0
	for iterations < opts.MaxIterations && !g.Tripped() {
		t0 := rec.Start()
		residual := in.NumQueries() - t.CoveredCount()
		gained := phase(g, rec, t, allowed, in.Budget(), opts)
		costBefore := t.Cost()
		if gained {
			kept = false
		}
		if !opts.DisableMC3 && !kept {
			kept = !mc3Improve(g, rec, t)
		}
		iterations++
		rec.End(obs.StageResidual, t0, residual)
		if !gained && t.Cost() >= costBefore-1e-9 {
			break
		}
	}
	if IG1Fill(g, t) > 0 {
		kept = false
	}
	if !opts.DisableMC3 && !g.Tripped() && !kept {
		mc3Improve(g, rec, t)
		IG1Fill(g, t)
	}
	return iterations
}

// phaseMaxCost bounds the per-candidate cost considered by a phase's
// subproblems. On warm fast-path runs a candidate costing more than the
// residual phase budget can never appear in a feasible selection, so
// filtering it up front shrinks the knapsack item list and — because
// 2-cover edges are quadratic in the candidates per query — collapses
// the QK graph, which is where warm runs otherwise spend their time.
// Cold runs keep the unfiltered subproblems, byte-for-byte.
func phaseMaxCost(opts Options, budget float64) float64 {
	if opts.warmFast {
		return budget
	}
	return math.Inf(1)
}

// phase solves BCC(1) (knapsack) and BCC(2) (QK) on the residual problem
// with the given absolute cost ceiling, applies the better of the two
// candidate selections, and reports whether utility increased.
func phase(g *guard.Guard, rec *obs.Recorder, t *cover.Tracker, allowed []bool, ceiling float64, opts Options) bool {
	budget := ceiling - t.Cost()
	if budget <= 0 || g.Tripped() {
		return false
	}
	guard.Inject("core.phase")
	sp := buildSubproblems(g, t, allowed, phaseMaxCost(opts, budget))

	// BCC(1): knapsack over 1-covers.
	t0 := rec.Start()
	kres := knapsack.SolveGuard(g, sp.items, budget, epsilon)
	rec.End(obs.StageKnapsack, t0, len(sp.items))
	var kadd []int32
	for _, i := range kres.Chosen {
		kadd = append(kadd, sp.itemCls[i])
	}

	// BCC(2): Quadratic Knapsack over 2-covers (plus the vStar-encoded
	// 1-cover bonuses; see subproblems).
	var qadd []int32
	if sp.graph.NumEdges() > 0 && !g.Tripped() {
		t0 = rec.Start()
		qres := qk.SolveHeuristicGuard(g, sp.graph, budget, opts.QK)
		rec.End(obs.StageQK, t0, sp.graph.NumEdges())
		qadd = sp.qkNodes(qres.Nodes)
	}

	// Apply the best candidate by true utility gain. This still runs after
	// a trip: the candidates already computed are feasibility-checked
	// below, and applying one is what makes the run anytime.
	bestGain, bestAdd := 0.0, []int32(nil)
	for _, add := range [][]int32{kadd, qadd} {
		if len(add) == 0 {
			continue
		}
		c := t.Clone()
		for _, ci := range add {
			c.AddIndex(int(ci))
		}
		if c.Cost() > ceiling+1e-9 {
			continue
		}
		if gain := c.Utility() - t.Utility(); gain > bestGain {
			bestGain, bestAdd = gain, add
		}
	}
	if bestAdd == nil {
		return false
	}
	for _, ci := range bestAdd {
		t.AddIndex(int(ci))
	}
	return bestGain > 0
}

// mc3Improve re-covers the currently covered query set at minimum cost via
// the MC3 algorithm of [23] and adopts the result if it is strictly
// cheaper (line 3 of Algorithm 1 — a local-search step; the MC3 output is
// discarded when not an improvement). It reports whether it changed the
// selection; when it did not, a second call on the same selection would
// not either.
func mc3Improve(g *guard.Guard, rec *obs.Recorder, t *cover.Tracker) (changed bool) {
	if t.CoveredCount() == 0 || g.Tripped() {
		return false
	}
	covered := t.CoveredIndices()
	// A panic inside MC3 forfeits this improvement, not the whole run: the
	// tracker is only mutated after the MC3 result passed the cost check.
	defer g.Recover()
	defer rec.End(obs.StageMC3, rec.Start(), len(covered))
	in := t.Instance()
	out := mc3.Solve(in, covered)
	if len(out.Uncovered) > 0 || out.Cost >= t.Cost()-1e-9 {
		return false
	}
	old := t.Clone()
	changed = true // from here a panic may leave t part-way
	// MC3's classifiers, then the free ones: they cost nothing and may
	// still help residual rounds.
	t.ResetIndex(out.Indices)
	for ci, c := range in.Classifiers() {
		if c.Cost == 0 {
			t.AddIndex(ci)
		}
	}
	if t.Utility() < old.Utility()-1e-9 || t.Cost() > old.Cost()+1e-9 {
		// MC3 result unexpectedly worse (it optimizes cost for the covered
		// set only); roll back.
		t.CopyFrom(old)
		return false
	}
	return true
}
