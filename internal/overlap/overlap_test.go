package overlap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/propset"
)

func unitModel(labelCost, assemblyCost float64) CostModel {
	return CostModel{
		Label:    func(propset.ID) float64 { return labelCost },
		Assembly: func(propset.Set) float64 { return assemblyCost },
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
		b.AddQuerySet(propset.New(ids...), 1+float64(rng.Intn(9)))
	}
	return b.MustInstance(budget)
}

func TestSetCostSharing(t *testing.T) {
	u := propset.NewUniverse()
	ab := u.SetOf("a", "b")
	bc := u.SetOf("b", "c")
	m := unitModel(10, 1)
	// Separately: (10+10+1) each = 42; together b is labeled once: 31.
	if got := m.SetCost([]propset.Set{ab}); got != 21 {
		t.Fatalf("SetCost({AB}) = %v, want 21", got)
	}
	if got := m.SetCost([]propset.Set{ab, bc}); got != 32 {
		t.Fatalf("SetCost({AB,BC}) = %v, want 32", got)
	}
	if got := m.StandaloneCost(ab); got != 21 {
		t.Fatalf("StandaloneCost = %v, want 21", got)
	}
	// Duplicates are not double charged.
	if got := m.SetCost([]propset.Set{ab, ab}); got != 21 {
		t.Fatalf("SetCost with duplicate = %v, want 21", got)
	}
}

func TestZeroLabelReducesToAdditive(t *testing.T) {
	u := propset.NewUniverse()
	m := CostModel{Assembly: func(s propset.Set) float64 { return float64(s.Len()) }}
	sets := []propset.Set{u.SetOf("a"), u.SetOf("a", "b")}
	if got := m.SetCost(sets); got != 3 {
		t.Fatalf("additive special case: %v, want 3", got)
	}
}

func TestSolveExploitsSharing(t *testing.T) {
	// Star queries share property x; labeling x once makes the whole star
	// affordable, which an additive model could not do.
	b := model.NewBuilder()
	b.AddQuery(5, "x", "y")
	b.AddQuery(5, "x", "z")
	b.AddQuery(5, "x", "w")
	in := b.MustInstance(10)
	m := unitModel(2, 1)
	// Cover all three via singletons: labels x,y,z,w = 8, assemblies 4 → 12
	// > 10. Via pair classifiers XY,XZ,XW: labels 8 + assemblies 3 = 11 >
	// 10. Mixed: X,Y,Z,W assemblies 4... same 12. Hmm — budget 10 allows
	// two queries: labels x,y,z = 6 + assemblies X,Y,Z = 3 → 9 ≤ 10 for
	// utility 10.
	res := SolveCoverGreedy(in, m)
	if res.Cost > 10+1e-9 {
		t.Fatalf("budget exceeded: %v", res.Cost)
	}
	if res.Utility < 10 {
		t.Fatalf("sharing should afford ≥ 2 queries: utility %v", res.Utility)
	}
	if res.AdditiveCost <= res.Cost {
		t.Fatalf("no sharing realized: additive %v vs overlap %v", res.AdditiveCost, res.Cost)
	}
}

func TestSolveFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 8, 12, 3, float64(3+rng.Intn(15)))
		m := unitModel(float64(1+rng.Intn(3)), float64(rng.Intn(3)))
		for name, res := range map[string]Result{
			"greedy": Solve(in, m),
			"cover":  SolveCoverGreedy(in, m),
			"rand":   SolveRand(in, m, int64(trial+1)),
		} {
			if res.Cost > in.Budget()+1e-9 {
				t.Fatalf("trial %d: %s exceeded budget (%v > %v)",
					trial, name, res.Cost, in.Budget())
			}
			// Reported cost must match pricing the selection from scratch.
			var sel []propset.Set
			for _, c := range res.Solution.Classifiers() {
				sel = append(sel, c.Props)
			}
			if got := m.SetCost(sel); math.Abs(got-res.Cost) > 1e-9 {
				t.Fatalf("trial %d: %s cost mismatch %v vs %v", trial, name, got, res.Cost)
			}
		}
	}
}

func TestSolveNearBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tot, opt float64
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 5, 5, 2, float64(3+rng.Intn(10)))
		m := unitModel(float64(1+rng.Intn(3)), 1)
		a := Solve(in, m)
		b := SolveCoverGreedy(in, m)
		best := a
		if b.Utility > best.Utility {
			best = b
		}
		ref, err := BruteForce(in, m)
		if err != nil {
			t.Fatal(err)
		}
		if best.Utility > ref.Utility+1e-9 {
			t.Fatalf("trial %d: greedy %v beats brute %v", trial, best.Utility, ref.Utility)
		}
		tot += best.Utility
		opt += ref.Utility
	}
	if tot < 0.7*opt {
		t.Fatalf("greedy aggregate %v below 0.7 × optimal %v", tot, opt)
	}
}

func TestOverlapBeatsAdditiveSelection(t *testing.T) {
	// Under heavy label sharing, the selected pair classifiers overlap in
	// properties, so the true (shared) cost is below the additive sum.
	// Singleton-only selections cannot share, so the workload here is all
	// pair queries over few properties.
	rng := rand.New(rand.NewSource(3))
	wins := 0
	for trial := 0; trial < 20; trial++ {
		b := model.NewBuilder()
		u := b.Universe()
		names := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < 10; i++ {
			x, y := rng.Intn(5), rng.Intn(5)
			if x == y {
				y = (y + 1) % 5
			}
			b.AddQuerySet(propset.New(u.Intern(names[x]), u.Intern(names[y])),
				1+float64(rng.Intn(9)))
		}
		in := b.MustInstance(30)
		m := unitModel(3, 0.5)
		res := SolveCoverGreedy(in, m)
		if res.AdditiveCost > res.Cost+1e-9 {
			wins++
		}
	}
	if wins < 14 {
		t.Fatalf("sharing realized in only %d/20 trials", wins)
	}
}

// TestInfPricedSubsetStaysCandidate solves the README quickstart
// instance, which prices the wooden+table classifier +Inf. The overlap
// model ignores the instance's prices, so that pair is a candidate like
// any other subset, and selecting it must cover "wooden table". A
// tracker that dropped it left the query uncovered, so the cover greedy
// picked the same cover forever; the deadline turns such a hang into a
// failure.
func TestInfPricedSubsetStaysCandidate(t *testing.T) {
	b := model.NewBuilder()
	b.AddQuery(8, "wooden", "table")
	b.AddQuery(3, "round", "table")
	b.AddQuery(5, "running", "shoes")
	b.SetCost(4, "wooden")
	b.SetCost(2, "table")
	b.SetCost(3, "round")
	b.SetCost(6, "running", "shoes")
	b.SetCost(math.Inf(1), "wooden", "table")
	b.SetCost(5, "round", "table")
	b.SetCost(9, "running")
	b.SetCost(9, "shoes")
	in := b.MustInstance(9)
	woodenTable := b.Universe().SetOf("wooden", "table")

	for name, m := range map[string]CostModel{
		"free":    {},
		"label=1": {Label: func(propset.ID) float64 { return 1 }},
	} {
		for solver, run := range map[string]func(context.Context, *model.Instance, CostModel) Result{
			"SolveCoverGreedyCtx": SolveCoverGreedyCtx,
			"SolveCtx":            SolveCtx,
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			res := run(ctx, in, m)
			cancel()
			if res.Status != guard.Complete {
				t.Fatalf("%s, %s: status %v (%v), want complete", solver, name, res.Status, res.Err)
			}
			if !res.Solution.Has(woodenTable) || !res.Solution.Covers(woodenTable) {
				t.Errorf("%s, %s: wooden table not covered by its pair classifier: %v",
					solver, name, res.Solution.Classifiers())
			}
			if res.Utility != 16 {
				t.Errorf("%s, %s: utility %v, want 16", solver, name, res.Utility)
			}
		}
	}
}

func TestBruteForceRefusesLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomInstance(rng, 30, 40, 3, 10)
	if _, err := BruteForce(in, unitModel(1, 1)); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func BenchmarkSolveCoverGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(rng, 60, 300, 3, 80)
	m := unitModel(2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveCoverGreedy(in, m)
	}
}
