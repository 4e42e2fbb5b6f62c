package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/propset"
)

// fig1Instance is the Figure 1 input of the paper.
func fig1Instance(budget float64) *model.Instance {
	b := model.NewBuilder()
	b.AddQuery(8, "x", "y", "z")
	b.AddQuery(1, "x", "z")
	b.AddQuery(2, "x", "y")
	b.SetCost(5, "x")
	b.SetCost(3, "y")
	b.SetCost(3, "z")
	b.SetCost(3, "x", "y", "z")
	b.SetCost(4, "x", "z")
	b.SetCost(0, "y", "z")
	b.SetCost(math.Inf(1), "x", "y")
	return b.MustInstance(budget)
}

func TestFigure1Golden(t *testing.T) {
	// Golden optimal utilities from Figure 1: B=3 → 8, B=4 → 9, B=11 → 11.
	for _, c := range []struct {
		budget, utility float64
	}{{3, 8}, {4, 9}, {11, 11}} {
		in := fig1Instance(c.budget)
		res := Solve(in, Options{})
		if res.Utility != c.utility {
			t.Errorf("B=%v: A^BCC utility = %v, want %v (cost %v, %v)",
				c.budget, res.Utility, c.utility, res.Cost,
				res.Solution.Classifiers())
		}
		if res.Cost > c.budget+1e-9 {
			t.Errorf("B=%v: cost %v exceeds budget", c.budget, res.Cost)
		}
		// Cross-check against exact search.
		opt, err := BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Utility != c.utility {
			t.Errorf("B=%v: brute force utility = %v, want %v", c.budget, opt.Utility, c.utility)
		}
	}
}

func TestFigure2Split(t *testing.T) {
	// The l=2 instance of Figure 2: queries xy (utility 2), yz (utility 1),
	// singleton query y (via the Knapsack instance the classifier YZ and XZ
	// are items). We reproduce the headline: the optimum 2-covers xy with
	// {X, Y} and 1-covers yz with YZ.
	b := model.NewBuilder()
	b.AddQuery(2, "x", "y")
	b.AddQuery(1, "y", "z")
	b.SetCost(2, "x")
	b.SetCost(1, "y")
	b.SetCost(2, "z")
	b.SetCost(4, "x", "y")
	b.SetCost(1, "y", "z")
	in := b.MustInstance(4)
	res := Solve(in, Options{})
	opt, err := BruteForce(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility != opt.Utility {
		t.Fatalf("A^BCC %v != optimal %v", res.Utility, opt.Utility)
	}
	if opt.Utility != 3 { // X+Y+YZ costs 4, covers both queries
		t.Fatalf("optimal = %v, want 3", opt.Utility)
	}
}

func randomInstance(rng *rand.Rand, nProps, nQueries, maxLen int, budget float64) *model.Instance {
	b := model.NewBuilder()
	u := b.Universe()
	names := make([]string, nProps)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	for i := 0; i < nQueries; i++ {
		ln := 1 + rng.Intn(maxLen)
		ids := make([]propset.ID, ln)
		for j := range ids {
			ids[j] = u.Intern(names[rng.Intn(nProps)])
		}
		b.AddQuerySet(propset.New(ids...), 1+float64(rng.Intn(20)))
	}
	costSeed := rng.Int63()
	b.SetDefaultCost(func(s propset.Set) float64 {
		h := costSeed
		for _, id := range s {
			h = h*31 + int64(id) + 7
		}
		return 1 + float64((h%7+7)%7)
	})
	return b.MustInstance(budget)
}

func checkResult(t *testing.T, in *model.Instance, res Result, name string) {
	t.Helper()
	if res.Cost > in.Budget()+1e-6 {
		t.Fatalf("%s: cost %v exceeds budget %v", name, res.Cost, in.Budget())
	}
	if got := res.Solution.Utility(); math.Abs(got-res.Utility) > 1e-6 {
		t.Fatalf("%s: reported utility %v != recomputed %v", name, res.Utility, got)
	}
	if got := res.Solution.Cost(); math.Abs(got-res.Cost) > 1e-6 {
		t.Fatalf("%s: reported cost %v != recomputed %v", name, res.Cost, got)
	}
}

func TestAllSolversFeasibleAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 8, 12, 3, float64(3+rng.Intn(15)))
		checkResult(t, in, Solve(in, Options{Seed: int64(trial + 1)}), "A^BCC")
		checkResult(t, in, SolveRand(in, int64(trial+1)), "RAND")
		checkResult(t, in, SolveIG1(in), "IG1")
		checkResult(t, in, SolveIG2(in), "IG2")
	}
}

func TestABCCNeverBelowBruteForceAndWithin20Pct(t *testing.T) {
	// Figure 3d claim: loss vs exhaustive search below 20% on small
	// instances.
	rng := rand.New(rand.NewSource(2))
	var totGot, totOpt float64
	for trial := 0; trial < 12; trial++ {
		in := randomInstance(rng, 6, 7, 3, float64(4+rng.Intn(10)))
		res := Solve(in, Options{Seed: int64(trial + 1)})
		opt, err := BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Utility > opt.Utility+1e-9 {
			t.Fatalf("trial %d: A^BCC %v beats brute force %v — a bug",
				trial, res.Utility, opt.Utility)
		}
		totGot += res.Utility
		totOpt += opt.Utility
	}
	if totGot < 0.8*totOpt {
		t.Fatalf("aggregate A^BCC/OPT = %.3f, below the 0.8 the paper reports",
			totGot/totOpt)
	}
}

func TestABCCBeatsOrMatchesBaselinesOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var abcc, randU, ig1, ig2 float64
	for trial := 0; trial < 12; trial++ {
		in := randomInstance(rng, 10, 25, 3, float64(6+rng.Intn(20)))
		abcc += Solve(in, Options{Seed: int64(trial + 1)}).Utility
		randU += SolveRand(in, int64(trial+1)).Utility
		ig1 += SolveIG1(in).Utility
		ig2 += SolveIG2(in).Utility
	}
	if abcc < ig1 || abcc < ig2 || abcc < randU {
		t.Fatalf("A^BCC (%.1f) must dominate baselines on average: RAND %.1f IG1 %.1f IG2 %.1f",
			abcc, randU, ig1, ig2)
	}
}

func TestZeroBudgetOnlyFreeClassifiers(t *testing.T) {
	b := model.NewBuilder()
	b.AddQuery(5, "a")
	b.AddQuery(3, "b")
	b.SetCost(0, "a")
	b.SetCost(2, "b")
	in := b.MustInstance(0)
	res := Solve(in, Options{})
	if res.Utility != 5 || res.Cost != 0 {
		t.Fatalf("zero budget: utility %v cost %v, want 5 and 0", res.Utility, res.Cost)
	}
}

func TestUniformCostsI2EquivalentToDkS(t *testing.T) {
	// The I_2 special case (Theorem 3.3): all queries length 2, singleton
	// costs 1, longer classifiers excluded, budget k. BCC = DkS. On a
	// 4-clique with budget 3, the best 3 nodes induce 3 edges.
	b := model.NewBuilder()
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddQuery(1, names[i], names[j])
		}
	}
	b.SetDefaultCost(func(s propset.Set) float64 {
		if s.Len() == 1 {
			return 1
		}
		return math.Inf(1)
	})
	in := b.MustInstance(3)
	res := Solve(in, Options{})
	if res.Utility != 3 {
		t.Fatalf("I_2 clique: utility %v, want 3 (DkS on K4, k=3)", res.Utility)
	}
}

// TestDeterministicWithSeed solves each instance twice at one seed and
// requires the same plan, classifier for classifier: a small random
// instance, and a Private-size one whose QK graphs have thousands of
// edges, so an order leaking from a map would show in the plan.
func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := func(r Result) []string {
		var out []string
		for _, c := range r.Solution.Classifiers() {
			out = append(out, c.Props.Key())
		}
		return out
	}
	for _, c := range []struct {
		name string
		in   *model.Instance
		seed int64
	}{
		{"random-30q", randomInstance(rng, 12, 30, 3, 15), 9},
		{"private-103-b1800", dataset.Private(103, 1800), 1},
	} {
		a, b := Solve(c.in, Options{Seed: c.seed}), Solve(c.in, Options{Seed: c.seed})
		if ka, kb := keys(a), keys(b); a.Utility != b.Utility || a.Cost != b.Cost || !slices.Equal(ka, kb) {
			t.Fatalf("%s: same seed, different plans: utility %v cost %v (%d classifiers) vs %v cost %v (%d classifiers)",
				c.name, a.Utility, a.Cost, len(ka), b.Utility, b.Cost, len(kb))
		}
	}
}

// TestSubproblemEdgesDeterministic builds the subproblems of one
// Private-like instance twice. The QK solver breaks ties by edge order,
// so the two edge lists must be identical, not merely equal as sets.
func TestSubproblemEdgesDeterministic(t *testing.T) {
	in := dataset.Private(103, 1600)
	a := buildSubproblems(nil, cover.New(in), nil, math.Inf(1))
	b := buildSubproblems(nil, cover.New(in), nil, math.Inf(1))
	ea, eb := a.graph.Edges(), b.graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d of %d differs between builds: %+v vs %+v", i, len(ea), ea[i], eb[i])
		}
	}
}

func TestPruningPreservesQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var withP, withoutP float64
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 10, 30, 4, float64(8+rng.Intn(15)))
		withP += Solve(in, Options{Seed: int64(trial + 1)}).Utility
		withoutP += Solve(in, Options{Seed: int64(trial + 1), DisablePruning: true}).Utility
	}
	if withP < 0.9*withoutP {
		t.Fatalf("pruning lost too much utility: %v vs %v", withP, withoutP)
	}
}

func TestMC3ImprovementNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 8, 20, 3, float64(6+rng.Intn(12)))
		with := Solve(in, Options{Seed: int64(trial + 1)})
		without := Solve(in, Options{Seed: int64(trial + 1), DisableMC3: true})
		if with.Utility < without.Utility-1e-9 {
			t.Fatalf("trial %d: MC3 step reduced utility: %v < %v",
				trial, with.Utility, without.Utility)
		}
	}
}

func TestBruteForceRefusesLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomInstance(rng, 40, 80, 3, 10)
	if _, err := BruteForce(in); err == nil {
		t.Fatal("BruteForce accepted an oversized instance")
	}
}

func TestResultAccounting(t *testing.T) {
	in := fig1Instance(11)
	res := Solve(in, Options{})
	if res.Covered != 3 {
		t.Fatalf("Covered = %d, want 3", res.Covered)
	}
	if res.Duration <= 0 {
		t.Fatal("Duration not recorded")
	}
	if res.Iterations < 1 {
		t.Fatal("Iterations not recorded")
	}
}

func BenchmarkABCCMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	in := randomInstance(rng, 100, 400, 3, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Solve(in, Options{Seed: int64(i + 1)})
	}
}

func BenchmarkIG2Medium(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := randomInstance(rng, 100, 400, 3, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveIG2(in)
	}
}
