// Package overlap implements the overlapping-construction-cost extension
// of BCC that the paper's conclusion (Section 8) lists as future work: in
// practice classifiers share training effort (labeled examples for a
// property can be reused by every classifier testing it), so the cost of a
// classifier set is not the sum of individual costs.
//
// The cost model decomposes construction into per-property labeling and
// per-classifier assembly:
//
//	C(S) = Σ_{p ∈ P(S)} Label(p)  +  Σ_{s ∈ S} Assembly(s)
//
// Labeling a property is paid once no matter how many selected classifiers
// test it; assembling (training/validating) each classifier is paid per
// classifier. The base model is the special case Label ≡ 0.
//
// The budgeted objective is no longer additive in the selection, so the
// knapsack/QK machinery does not apply directly; the package provides a
// marginal-cost greedy solver (recomputing scores as shared labels are
// paid off), a random baseline, and an exhaustive reference.
package overlap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/propset"
)

// CostModel prices classifier sets with shared per-property labeling.
type CostModel struct {
	// Label is the one-time labeling cost of a property. nil means 0.
	Label func(propset.ID) float64
	// Assembly is the per-classifier training cost. nil means 0.
	Assembly func(propset.Set) float64
}

func (m CostModel) label(p propset.ID) float64 {
	if m.Label == nil {
		return 0
	}
	return m.Label(p)
}

func (m CostModel) assembly(s propset.Set) float64 {
	if m.Assembly == nil {
		return 0
	}
	return m.Assembly(s)
}

// SetCost prices a whole classifier set under the shared-labeling model.
func (m CostModel) SetCost(sets []propset.Set) float64 {
	var cost float64
	var union propset.Set
	seen := map[string]bool{}
	for _, s := range sets {
		if seen[s.Key()] {
			continue
		}
		seen[s.Key()] = true
		cost += m.assembly(s)
		union = union.Union(s)
	}
	for _, p := range union {
		cost += m.label(p)
	}
	return cost
}

// StandaloneCost prices a single classifier in isolation — the additive
// cost the base model would charge.
func (m CostModel) StandaloneCost(s propset.Set) float64 {
	return m.assembly(s) + func() float64 {
		var sum float64
		for _, p := range s {
			sum += m.label(p)
		}
		return sum
	}()
}

// Result reports an overlap-aware solver run.
type Result struct {
	Solution *model.Solution
	// Utility is the covered utility (base BCC semantics).
	Utility float64
	// Cost is the overlap-aware cost of the selection.
	Cost float64
	// AdditiveCost is what the same selection would cost without sharing;
	// the difference is the realized overlap saving.
	AdditiveCost float64
	// Duration is the wall-clock solve time.
	Duration time.Duration
	// Status reports how the run ended; a non-Complete result still holds
	// the budget-feasible selection accumulated so far.
	Status guard.Status
	// Err is the context error or contained panic for a non-Complete run.
	Err error
}

// Solve maximizes covered utility within the instance's budget under the
// overlap cost model (the instance's own classifier costs are ignored;
// its queries, utilities and budget are used). Marginal costs shrink as
// labeled properties accumulate, so scores are recomputed each round over
// the affected candidates.
func Solve(in *model.Instance, m CostModel) Result {
	return SolveCtx(context.Background(), in, m)
}

// SolveCtx is Solve under a context: on deadline expiry or cancellation it
// returns the budget-feasible selection accumulated so far, with
// Result.Status reporting why it stopped; contained panics surface as
// Status Recovered.
func SolveCtx(ctx context.Context, in *model.Instance, m CostModel) (res Result) {
	start := time.Now()
	g := guard.New(ctx)
	var sel []propset.Set
	defer func() {
		if p := recover(); p != nil {
			g.NotePanic(p)
			res = finishGuarded(g, in, m, sel, start)
		}
	}()
	if g.Tripped() {
		return finishGuarded(g, in, m, nil, start)
	}
	cin := coverageInstance(in)
	t := cover.New(cin)
	cls := cin.Classifiers()
	queries := in.Queries()
	budget := in.Budget()

	// Candidate classifiers: all query subsets (the overlap model prices
	// everything finitely).
	cands := candidates(cin)
	paid := map[propset.ID]bool{}
	var cost float64

	marginalCost := func(c propset.Set) float64 {
		mc := m.assembly(c)
		for _, p := range c {
			if !paid[p] {
				mc += m.label(p)
			}
		}
		return mc
	}
	// marginalGain sums the utility of the uncovered queries whose
	// residual classifier ci completes.
	marginalGain := func(ci int32) float64 {
		var gain float64
		qs, masks := t.Occurrences(int(ci))
		for i, qi := range qs {
			if r := t.ResidualMask(qi); r != 0 && r&^masks[i] == 0 {
				gain += queries[qi].Utility
			}
		}
		return gain
	}

	for !g.Tripped() {
		guard.Inject("overlap.round")
		bestI, bestScore := -1, 0.0
		bestMC := 0.0
		for i, ci := range cands {
			if g.Check() {
				break
			}
			if t.HasIndex(int(ci)) {
				continue
			}
			gain := marginalGain(ci)
			if gain <= 0 {
				continue
			}
			mc := marginalCost(cls[ci].Props)
			if mc > budget-cost+1e-9 {
				continue
			}
			score := math.Inf(1)
			if mc > 0 {
				score = gain / mc
			}
			if score > bestScore {
				bestI, bestScore, bestMC = i, score, mc
			}
		}
		if bestI < 0 {
			break
		}
		c := cls[cands[bestI]].Props
		t.AddIndex(int(cands[bestI]))
		sel = append(sel, c)
		cost += bestMC
		for _, p := range c {
			paid[p] = true
		}
	}
	return finishGuarded(g, in, m, sel, start)
}

// marginalGain in Solve only counts fully-covered queries per single
// addition; pairs that need two new classifiers are reached through the
// per-query cover step below, mirroring IG1 under marginal costs.
// SolveCoverGreedy selects whole per-query min-marginal-cost covers.
func SolveCoverGreedy(in *model.Instance, m CostModel) Result {
	return SolveCoverGreedyCtx(context.Background(), in, m)
}

// SolveCoverGreedyCtx is SolveCoverGreedy under a context, with the same
// anytime semantics as SolveCtx: every completed round leaves a
// budget-feasible selection, so interruption returns the best so far.
func SolveCoverGreedyCtx(ctx context.Context, in *model.Instance, m CostModel) (res Result) {
	start := time.Now()
	g := guard.New(ctx)
	var sel []propset.Set
	defer func() {
		if p := recover(); p != nil {
			g.NotePanic(p)
			res = finishGuarded(g, in, m, sel, start)
		}
	}()
	if g.Tripped() {
		return finishGuarded(g, in, m, nil, start)
	}
	t := cover.New(coverageInstance(in))
	budget := in.Budget()
	paid := map[propset.ID]bool{}
	var cost float64

	for !g.Tripped() {
		guard.Inject("overlap.round")
		bestQi := -1
		var bestSets []propset.Set
		bestScore, bestMC := 0.0, 0.0
		for qi, q := range in.Queries() {
			if g.Check() {
				break
			}
			if t.Covered(qi) {
				continue
			}
			sets, mc := cheapestCover(in, t, m, paid, qi)
			if sets == nil || mc > budget-cost+1e-9 {
				continue
			}
			score := math.Inf(1)
			if mc > 0 {
				score = q.Utility / mc
			}
			if score > bestScore {
				bestQi, bestScore, bestSets, bestMC = qi, score, sets, mc
			}
		}
		if bestQi < 0 {
			break
		}
		for _, c := range bestSets {
			if t.Add(c) {
				sel = append(sel, c)
			}
			for _, p := range c {
				paid[p] = true
			}
		}
		cost += bestMC
	}
	return finishGuarded(g, in, m, sel, start)
}

// cheapestCover finds the min-marginal-cost cover of query qi via subset
// DP, pricing unpaid labels once within the cover.
func cheapestCover(in *model.Instance, t *cover.Tracker, m CostModel, paid map[propset.ID]bool, qi int) ([]propset.Set, float64) {
	q := in.Queries()[qi].Props
	res := t.Residual(qi)
	if res.Empty() {
		return nil, 0
	}
	pos := map[propset.ID]uint{}
	for i, p := range res {
		pos[p] = uint(i)
	}
	full := (1 << uint(res.Len())) - 1

	type cd struct {
		c    propset.Set
		mask int
	}
	var cands []cd
	q.Subsets(func(sub propset.Set) {
		if t.Has(sub) {
			return
		}
		mask := 0
		for _, p := range sub {
			if b, ok := pos[p]; ok {
				mask |= 1 << b
			}
		}
		if mask != 0 {
			cands = append(cands, cd{sub.Clone(), mask})
		}
	})
	// DP over covered masks; cost of a state = assemblies + labels of the
	// union of chosen parts (priced against paid).
	type stateT struct {
		cost  float64
		sets  []propset.Set
		union propset.Set
	}
	const none = -1
	dp := make([]*stateT, full+1)
	dp[0] = &stateT{}
	_ = none
	for mask := 0; mask <= full; mask++ {
		if dp[mask] == nil {
			continue
		}
		for _, cand := range cands {
			nm := mask | cand.mask
			if nm == mask {
				continue
			}
			add := m.assembly(cand.c)
			for _, p := range cand.c {
				if !paid[p] && !dp[mask].union.Contains(p) {
					add += m.label(p)
				}
			}
			nc := dp[mask].cost + add
			if dp[nm] == nil || nc < dp[nm].cost {
				dp[nm] = &stateT{
					cost:  nc,
					sets:  append(append([]propset.Set(nil), dp[mask].sets...), cand.c),
					union: dp[mask].union.Union(cand.c),
				}
			}
		}
	}
	if dp[full] == nil {
		return nil, math.Inf(1)
	}
	return dp[full].sets, dp[full].cost
}

func finishGuarded(g *guard.Guard, in *model.Instance, m CostModel, sel []propset.Set, start time.Time) Result {
	r := finish(in, m, sel, start)
	r.Status = g.Status()
	r.Err = g.Err()
	return r
}

func finish(in *model.Instance, m CostModel, sel []propset.Set, start time.Time) Result {
	s := model.NewSolution(in)
	var additive float64
	for _, c := range sel {
		s.AddClassifier(model.Classifier{Props: c, Cost: m.StandaloneCost(c)})
		additive += m.StandaloneCost(c)
	}
	return Result{
		Solution:     s,
		Utility:      s.Utility(),
		Cost:         m.SetCost(sel),
		AdditiveCost: additive,
		Duration:     time.Since(start),
	}
}

// SolveRand is the random baseline under overlap costs.
func SolveRand(in *model.Instance, m CostModel, seed int64) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	cin := coverageInstance(in)
	t := cover.New(cin)
	budget := in.Budget()
	paid := map[propset.ID]bool{}
	var sel []propset.Set
	var cost float64
	pool := candidates(cin)
	for len(pool) > 0 {
		i := rng.Intn(len(pool))
		ci := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if t.HasIndex(int(ci)) {
			continue
		}
		c := cin.Classifiers()[ci].Props
		mc := m.assembly(c)
		for _, p := range c {
			if !paid[p] {
				mc += m.label(p)
			}
		}
		if mc > budget-cost+1e-9 {
			continue
		}
		t.AddIndex(int(ci))
		sel = append(sel, c)
		cost += mc
		for _, p := range c {
			paid[p] = true
		}
	}
	return finish(in, m, sel, start)
}

// BruteForce solves small instances exactly under overlap costs.
func BruteForce(in *model.Instance, m CostModel) (Result, error) {
	start := time.Now()
	cin := coverageInstance(in)
	var cands []propset.Set
	for _, ci := range candidates(cin) {
		cands = append(cands, cin.Classifiers()[ci].Props)
	}
	if len(cands) > 22 {
		return Result{}, fmt.Errorf("overlap: BruteForce limited to 22 classifiers, instance has %d", len(cands))
	}
	budget := in.Budget()
	var best []propset.Set
	bestU := -1.0
	var cur []propset.Set
	var rec func(i int)
	rec = func(i int) {
		if m.SetCost(cur) <= budget+1e-9 {
			s := model.NewSolution(in)
			for _, c := range cur {
				s.Add(c)
			}
			if u := s.Utility(); u > bestU {
				bestU = u
				best = append([]propset.Set(nil), cur...)
			}
		}
		if i >= len(cands) || m.SetCost(cur) > budget+1e-9 {
			return
		}
		rec(i + 1)
		cur = append(cur, cands[i])
		rec(i + 1)
		cur = cur[:len(cur)-1]
	}
	rec(0)
	return finish(in, m, best, start), nil
}

// coverageInstance is in with every query subset in CL: the same
// queries (in the same order), utilities and budget, and a finite cost
// for every classifier. The overlap model prices classifiers itself, so
// a subset the instance prices +Inf is still a candidate, and coverage is
// tracked on this instance instead of on in.
func coverageInstance(in *model.Instance) *model.Instance {
	b := model.NewBuilderWithUniverse(in.Universe())
	for _, q := range in.Queries() {
		b.AddQuerySet(q.Props, q.Utility)
	}
	return b.MustInstance(in.Budget())
}

// candidates lists every non-empty subset of every query of a
// coverageInstance, deduplicated, as classifier indices in order of first
// appearance (queries in order, each query's subsets by ascending mask).
func candidates(cin *model.Instance) []int32 {
	seen := make([]bool, len(cin.Classifiers()))
	var out []int32
	for qi := range cin.NumQueries() {
		for _, ci := range cin.SubsetTable(qi) {
			if !seen[ci] {
				seen[ci] = true
				out = append(out, ci)
			}
		}
	}
	return out
}
