// Package evo implements an anytime evolutionary solver for the BCC
// objective, after "Evolutionary Optimization of High-Coverage Budgeted
// Classifiers" (arXiv:2110.13067): a population of budget-feasible
// classifier subsets evolves under coverage-aware crossover,
// utility-per-cost mutation and elitist replacement.
//
// Individuals are coverage trackers over the shared instance. The
// initial population holds an IG1-seeded individual (the greedy floor,
// unless disabled) plus random feasible fills; each generation then
// breeds a full cohort of offspring by tournament selection, merges the
// parents' selections greedily by marginal gain density (crossover),
// occasionally swaps a low-density selection for random affordable ones
// (mutation), and carries the elite of the previous generation forward.
//
// A separate incumbent — the best individual ever seen — only improves,
// which is what makes the solver safe under the checkpointed-slice
// protocol of internal/jobs: each slice warm-starts from the previous
// checkpoint via Options.Warm and can only report equal or better
// utility. All randomness flows from a single Options.Seed, so a run is
// bit-for-bit reproducible (satisfying the bccsolve -algo evo -seed N
// determinism contract).
//
// The entry point is anytime: every generation boundary checks the
// guard, per-generation timings land in obs (StageEvoGeneration), and
// the "evo.generation" fault-injection point lets tests cancel or crash
// mid-evolution.
package evo

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/propset"
)

// Options tunes the evolutionary solver. The zero value gives the
// defaults.
type Options struct {
	// Seed drives all randomness (population init, selection, mutation)
	// deterministically. Default 1.
	Seed int64
	// Population is the number of individuals per generation. Default 24.
	Population int
	// Generations caps the number of generations. Default 60.
	Generations int
	// Elite is how many best individuals survive each generation
	// unchanged. Default 4 (clamped below Population).
	Elite int
	// MutationRate is the per-offspring probability of a mutation step.
	// Default 0.3.
	MutationRate float64
	// StallLimit stops the run after this many consecutive generations
	// without incumbent improvement. Default 15; negative disables the
	// early stop.
	StallLimit int
	// DisableGreedyFloor skips the IG1-seeded individual. With the floor
	// enabled (default), a cold run's incumbent never trails the IG1
	// baseline, even when a deadline stops the run mid-generation; the
	// IG1 individual starts from the warm seed when there is one.
	DisableGreedyFloor bool
	// Warm seeds every individual's base with a previously found
	// feasible plan (the incumbent of an earlier checkpoint or anytime
	// slice), so a resumed run never reports less than its checkpoint.
	Warm []propset.Set
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Population == 0 {
		o.Population = 24
	}
	if o.Population < 2 {
		o.Population = 2
	}
	if o.Generations == 0 {
		o.Generations = 60
	}
	if o.Elite == 0 {
		o.Elite = 4
	}
	if o.Elite >= o.Population {
		o.Elite = o.Population - 1
	}
	if o.MutationRate == 0 {
		o.MutationRate = 0.3
	}
	if o.StallLimit == 0 {
		o.StallLimit = 15
	}
	return o
}

// degradeFloor mirrors the bottom rung of core's degradation ladder:
// with less deadline than this left there is no time to evolve, so the
// solver returns the IG1 greedy fill directly.
const degradeFloor = 50 * time.Millisecond

// Result reports an evolutionary run.
type Result struct {
	Solution *model.Solution
	// Utility is the total utility of the covered queries.
	Utility float64
	// Cost is the total construction cost of the selected classifiers.
	Cost float64
	// Covered is the number of covered queries.
	Covered int
	// Generations is the number of generations executed.
	Generations int
	// Duration is the wall-clock solve time.
	Duration time.Duration
	// Status reports how the run ended; on any non-Complete status the
	// Solution is still the best feasible one found.
	Status guard.Status
	// Err is the context error or the contained panic when Status is
	// not Complete.
	Err error
}

// Solve runs the evolutionary solver to completion.
func Solve(in *model.Instance, opts Options) Result {
	return SolveCtx(context.Background(), in, opts)
}

// SolveCtx is Solve under a context: on deadline expiry or cancellation
// the solver stops at the next guard check and returns the incumbent —
// the best feasible individual ever seen, never worse than the IG1
// baseline once the floor individual is evaluated. Panics are contained
// and reported as Status Recovered.
func SolveCtx(ctx context.Context, in *model.Instance, opts Options) (res Result) {
	start := time.Now()
	opts = opts.withDefaults()
	g := guard.New(ctx)
	rec := obs.FromContext(ctx)
	rng := rand.New(rand.NewSource(opts.Seed))

	var best *cover.Tracker
	gens := 0
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
		r.Generations = gens
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

	// Shared base: free classifiers plus the warm incumbent. Every
	// individual is a clone of it, so prior progress is never lost.
	base := cover.New(in)
	for _, c := range in.Classifiers() {
		if c.Cost == 0 {
			base.Add(c.Props)
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

	// Bottom rung of the degradation ladder: almost no deadline budget
	// left, so skip evolution entirely — the IG1 greedy still yields a
	// sane, feasible plan.
	if left, ok := g.Remaining(); ok && left < degradeFloor {
		if !opts.DisableGreedyFloor {
			core.IG1Fill(g, best)
		}
		return finish()
	}

	// Candidate pool: every priced classifier that could ever fit the
	// budget, in the instance's deterministic order.
	classifiers := in.Classifiers()
	var pool []int
	for ci := range classifiers {
		c := classifiers[ci]
		if c.Cost <= 0 || c.Cost > in.Budget()+1e-9 {
			continue
		}
		pool = append(pool, ci)
	}

	// Initial population: the IG1 floor individual plus random feasible
	// fills. The floor is evaluated into the incumbent immediately, so
	// any later stop returns at least the IG1 baseline.
	pop := make([]*cover.Tracker, 0, opts.Population)
	if !opts.DisableGreedyFloor {
		fl := base.Clone()
		core.IG1Fill(g, fl)
		pop = append(pop, fl)
	}
	for len(pop) < opts.Population && !g.Tripped() {
		ind := base.Clone()
		randomFill(rng, ind, pool, classifiers)
		pop = append(pop, ind)
	}
	updateIncumbent(&best, pop)

	stall := 0
	for gens < opts.Generations && !g.Tripped() {
		t0 := rec.Start()
		guard.Inject("evo.generation")
		offspring := make([]*cover.Tracker, 0, opts.Population)
		for i := 0; i < opts.Population; i++ {
			if g.Check() {
				break
			}
			p1 := tournament(rng, pop)
			p2 := tournament(rng, pop)
			child := crossover(base, p1, p2)
			if rng.Float64() < opts.MutationRate {
				mutate(rng, child, pool, classifiers)
			}
			offspring = append(offspring, child)
		}
		gens++
		pop = nextGen(pop, offspring, opts.Elite, opts.Population)
		improved := updateIncumbent(&best, pop)
		rec.End(obs.StageEvoGeneration, t0, len(pop))
		if improved {
			stall = 0
		} else if stall++; opts.StallLimit > 0 && stall >= opts.StallLimit {
			break
		}
	}
	return finish()
}

// better orders individuals: more utility wins, ties go to lower cost.
func better(a, b *cover.Tracker) bool {
	if a.Utility() != b.Utility() {
		return a.Utility() > b.Utility()
	}
	return a.Cost() < b.Cost()
}

// updateIncumbent folds the population's best into the incumbent,
// reporting whether it improved. The incumbent is cloned so later
// generations cannot regress it — the monotonicity the checkpointed
// job slices rely on.
func updateIncumbent(best **cover.Tracker, pop []*cover.Tracker) bool {
	improved := false
	for _, t := range pop {
		if better(t, *best) {
			*best = t.Clone()
			improved = true
		}
	}
	return improved
}

// tournament samples two individuals uniformly and returns the better.
func tournament(rng *rand.Rand, pop []*cover.Tracker) *cover.Tracker {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if better(b, a) {
		return b
	}
	return a
}

// randomFill greedily adds classifiers in a random order while they fit
// the remaining budget.
func randomFill(rng *rand.Rand, t *cover.Tracker, pool []int, classifiers []model.Classifier) {
	for _, pi := range rng.Perm(len(pool)) {
		c := classifiers[pool[pi]]
		if t.Has(c.Props) || c.Cost > t.Remaining()+1e-9 {
			continue
		}
		t.Add(c.Props)
	}
}

// crossover breeds a child from the union of both parents' selections:
// starting from the shared base, it repeatedly adds the affordable
// parental classifier with the best marginal gain density against the
// child's current coverage (coverage-aware, rather than uniform gene
// mixing). A gene's gain is the tracker's coverage-progress surrogate
// ProgressGain, the one internal/submod selects by. Deterministic given
// the parents.
func crossover(base, p1, p2 *cover.Tracker) *cover.Tracker {
	child := base.Clone()
	classifiers := child.Instance().Classifiers()
	var genes []int
	for ci := range classifiers {
		if p1.HasIndex(ci) {
			genes = append(genes, ci)
		}
	}
	for ci := range classifiers {
		if p2.HasIndex(ci) && !p1.HasIndex(ci) {
			genes = append(genes, ci)
		}
	}
	used := make([]bool, len(genes))
	for {
		bi, bscore := -1, 0.0
		for i, ci := range genes {
			if used[i] {
				continue
			}
			if child.HasIndex(ci) {
				used[i] = true
				continue
			}
			cost := classifiers[ci].Cost
			if cost > child.Remaining()+1e-9 {
				// The remaining budget only shrinks: skip permanently.
				used[i] = true
				continue
			}
			gain := child.ProgressGain(ci)
			if gain <= 0 {
				used[i] = true
				continue
			}
			score := gain
			if cost > 0 {
				score = gain / cost
			}
			if score > bscore {
				bi, bscore = i, score
			}
		}
		if bi < 0 {
			break
		}
		child.AddIndex(genes[bi])
		used[bi] = true
	}
	return child
}

// mutate perturbs an individual: it drops the selected classifier with
// the worse utility-per-cost density among a sampled pair (freeing
// budget from a weak selection), then spends the freed budget on random
// affordable additions.
func mutate(rng *rand.Rand, t *cover.Tracker, pool []int, classifiers []model.Classifier) {
	var priced []propset.Set
	for _, s := range t.SelectedSets() {
		if t.Instance().Cost(s) > 0 {
			priced = append(priced, s)
		}
	}
	if len(priced) > 0 {
		a := priced[rng.Intn(len(priced))]
		b := priced[rng.Intn(len(priced))]
		drop := a
		if removalDensity(t, b) < removalDensity(t, a) {
			drop = b
		}
		t.Remove(drop)
	}
	if len(pool) == 0 {
		return
	}
	for tries := 0; tries < 8; tries++ {
		c := classifiers[pool[rng.Intn(len(pool))]]
		if t.Has(c.Props) || c.Cost > t.Remaining()+1e-9 {
			continue
		}
		t.Add(c.Props)
	}
}

// removalDensity measures a selected classifier's exclusive utility per
// cost by removing it, reading the utility drop, and adding it back
// (which exactly restores the tracker).
func removalDensity(t *cover.Tracker, s propset.Set) float64 {
	before := t.Utility()
	t.Remove(s)
	loss := before - t.Utility()
	t.Add(s)
	return loss / t.Instance().Cost(s)
}

// nextGen forms the next population: the elite of the old generation
// survives unchanged, the best offspring fill the rest (padded from the
// old population when a guard trip cut the cohort short).
func nextGen(old, offspring []*cover.Tracker, elite, size int) []*cover.Tracker {
	sortPop(old)
	sortPop(offspring)
	if elite > len(old) {
		elite = len(old)
	}
	next := make([]*cover.Tracker, 0, size)
	next = append(next, old[:elite]...)
	for _, t := range offspring {
		if len(next) == size {
			break
		}
		next = append(next, t)
	}
	for i := elite; len(next) < size && i < len(old); i++ {
		next = append(next, old[i])
	}
	return next
}

func sortPop(pop []*cover.Tracker) {
	sort.SliceStable(pop, func(i, j int) bool { return better(pop[i], pop[j]) })
}
