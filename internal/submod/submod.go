// Package submod implements a practical budgeted submodular greedy for
// the BCC objective, after "Practical Budgeted Submodular Maximization"
// (arXiv:2007.04937): covered utility is monotone in the selected
// classifier set, so the classic lazy-greedy machinery applies with a
// coverage-progress surrogate for the marginal gain.
//
// The solver runs two lazy-greedy passes from the same warm base — one
// selecting by cost-scaled gain (gain/cost density) and one by unscaled
// gain — and keeps the better result ("max of both"), the standard rule
// that restores a constant-factor guarantee for the budgeted setting.
// Each pass maintains a lazily revalidated max-heap over candidate
// classifiers: the popped candidate's gain is recomputed against the
// current coverage and the candidate is either selected (still ahead of
// the next-best), re-pushed (stale), or dropped (no residual overlap or
// permanently unaffordable). The heap is hand-rolled so the selection
// loop does not allocate.
//
// The marginal-gain surrogate for classifier c is
//
//	Σ_q U(q) · |res(q) ∩ c| / |res(q)|
//
// over the uncovered queries containing c, where res(q) is the query's
// residual (not-yet-testable) part. On a query it completes the term is
// the full U(q); on others it credits partial progress, weighting
// nearly-done queries higher — which is what makes the greedy close
// covers instead of spreading thin.
//
// An IG1 greedy floor runs before the passes (unless disabled), so a
// deadline or cancellation mid-pass still returns an incumbent no worse
// than the IG1 baseline. Like every solver in this repository the entry
// point is anytime: see SolveCtx.
package submod

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/propset"
)

// Options tunes the budgeted submodular greedy. The zero value is the
// default configuration; the solver itself is deterministic (no seed).
type Options struct {
	// DisableGreedyFloor skips the initial IG1 run that anchors the
	// incumbent. With the floor enabled (default), a cold run never
	// returns less utility than the IG1 baseline, even when stopped
	// mid-pass by a deadline; the IG1 run starts from the warm seed when
	// there is one.
	DisableGreedyFloor bool
	// Warm seeds the run with a previously found feasible plan — the
	// incumbent of an earlier checkpoint (internal/jobs) or a prior
	// anytime slice. Sets that fit the budget are selected into the
	// shared base before the floor and both passes, so a warm-started
	// run never returns less utility than the incumbent it was given.
	Warm []propset.Set
}

// Result reports a submodular-greedy run.
type Result struct {
	Solution *model.Solution
	// Utility is the total utility of the covered queries.
	Utility float64
	// Cost is the total construction cost of the selected classifiers.
	Cost float64
	// Covered is the number of covered queries.
	Covered int
	// Steps is the number of classifier selections across the floor and
	// both greedy passes.
	Steps int
	// Duration is the wall-clock solve time.
	Duration time.Duration
	// Status reports how the run ended; on any non-Complete status the
	// Solution is still the best feasible one found.
	Status guard.Status
	// Err is the context error or the contained panic when Status is
	// not Complete.
	Err error
}

// Solve runs the budgeted submodular greedy to completion.
func Solve(in *model.Instance, opts Options) Result {
	return SolveCtx(context.Background(), in, opts)
}

// SolveCtx is Solve under a context: on deadline expiry or cancellation
// the solver stops at the next guard check and returns the best feasible
// solution found so far (never worse than IG1 once the floor has run),
// with Result.Status reporting why it stopped. Panics are contained and
// reported as Status Recovered.
func SolveCtx(ctx context.Context, in *model.Instance, opts Options) (res Result) {
	start := time.Now()
	g := guard.New(ctx)
	rec := obs.FromContext(ctx)

	var best *cover.Tracker
	steps := 0
	finish := func() Result {
		var r Result
		if best != nil {
			r = Result{
				Solution: best.Solution(),
				Utility:  best.Utility(),
				Cost:     best.Cost(),
				Covered:  best.CoveredCount(),
			}
		} else {
			r = Result{Solution: model.NewSolution(in)}
		}
		r.Steps = steps
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

	// Shared base: free classifiers plus the warm incumbent. Both passes
	// and the floor start from it, so prior progress is never lost.
	base := cover.New(in)
	for ci, c := range in.Classifiers() {
		if c.Cost == 0 {
			base.AddIndex(ci)
		}
	}
	for _, w := range opts.Warm {
		if base.Has(w) {
			continue
		}
		if base.Cost()+in.Cost(w) <= in.Budget()+1e-9 {
			base.Add(w)
		}
	}
	best = base.Clone()
	if g.Tripped() {
		return finish()
	}

	// Floor first: once this completes, any later stop returns an
	// incumbent no worse than IG1 run from the base. A poor warm seed can
	// eat the budget before the floor runs; the solver registry holds
	// warm runs to the cold IG1 plan (algo.Descriptor.WarmStart).
	if !opts.DisableGreedyFloor {
		fl := base.Clone()
		steps += core.IG1Fill(g, fl)
		adopt(&best, fl)
	}

	for _, scaled := range []bool{true, false} {
		if g.Tripped() {
			break
		}
		guard.Inject("submod.pass")
		t0 := rec.Start()
		t := base.Clone()
		steps += lazyGreedy(g, t, scaled)
		rec.End(obs.StageSubmodPass, t0, t.CoveredCount())
		adopt(&best, t)
	}
	return finish()
}

// adopt replaces the incumbent when cand is strictly better: more
// utility, or equal utility at lower cost.
func adopt(best **cover.Tracker, cand *cover.Tracker) {
	if cand.Utility() > (*best).Utility() ||
		(cand.Utility() == (*best).Utility() && cand.Cost() < (*best).Cost()) {
		*best = cand
	}
}

// lazyGreedy runs one lazy-evaluation greedy pass on t, selecting by
// cost-scaled gain (scaled) or raw gain until nothing affordable gains.
// It returns the number of selections. A candidate's gain is the
// tracker's ProgressGain, Σ_q U(q)·|res(q)∩c|/|res(q)| over the uncovered
// queries containing it; TestScorerGainAllocs pins it at zero allocs.
func lazyGreedy(g *guard.Guard, t *cover.Tracker, scaled bool) int {
	classifiers := t.Instance().Classifiers()
	score := func(ci int) float64 {
		gain := t.ProgressGain(ci)
		if gain <= 0 {
			return 0
		}
		if scaled {
			return gain / classifiers[ci].Cost
		}
		return gain
	}

	// Free classifiers are in the base already; everything else with a
	// positive initial score enters the queue. The heap never grows past
	// its initial size (each pop re-pushes at most once), so the loop
	// below stays allocation-free.
	h := make(lazyHeap, 0, len(classifiers))
	for ci := range classifiers {
		if classifiers[ci].Cost <= 0 || t.HasIndex(ci) {
			continue
		}
		if s := score(ci); s > 0 {
			h = append(h, centry{ci, s})
		}
	}
	h.init()

	steps := 0
	for len(h) > 0 {
		if g.Check() {
			break
		}
		guard.Inject("submod.step")
		e := h.pop()
		s := score(e.ci)
		if s <= 0 {
			// No residual overlap left: the candidate can never gain
			// again (residuals only shrink), drop it permanently.
			continue
		}
		if len(h) > 0 && s < h[0].score-1e-12 {
			// Stale: worse than the next-best claim, re-enqueue.
			h.push(centry{e.ci, s})
			continue
		}
		if classifiers[e.ci].Cost > t.Remaining()+1e-9 {
			// The remaining budget only shrinks: drop permanently.
			continue
		}
		t.AddIndex(e.ci)
		steps++
	}
	return steps
}

// centry is one lazy-queue candidate: a classifier index with its last
// computed score.
type centry struct {
	ci    int
	score float64
}

// lazyHeap is a hand-rolled max-heap over centry. container/heap would
// box every Push/Pop value into an interface, allocating on the hot
// path; the explicit version keeps the selection loop alloc-free.
type lazyHeap []centry

func (h lazyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *lazyHeap) push(e centry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *lazyHeap) pop() centry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).down(0)
	return top
}

func (h lazyHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].score >= h[i].score {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h lazyHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h[l].score > h[best].score {
			best = l
		}
		if r < n && h[r].score > h[best].score {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
