package gmc3

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/propset"
)

func randomInstance(rng *rand.Rand, nProps, nQueries, maxLen int) *model.Instance {
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
	seed := rng.Int63()
	b.SetDefaultCost(func(s propset.Set) float64 {
		h := seed
		for _, id := range s {
			h = h*31 + int64(id) + 7
		}
		return 1 + float64((h%7+7)%7)
	})
	return b.MustInstance(0) // budget unused by GMC3
}

func TestSolveReachesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(rng, 8, 15, 3)
		target := in.TotalUtility() * 0.5
		res := Solve(in, target, Options{Seed: int64(trial + 1)})
		if !res.Achieved {
			t.Fatalf("trial %d: target %v not reached (utility %v)", trial, target, res.Utility)
		}
		if got := res.Solution.Utility(); math.Abs(got-res.Utility) > 1e-6 {
			t.Fatalf("trial %d: reported utility %v != recomputed %v", trial, res.Utility, got)
		}
		if got := res.Solution.Cost(); math.Abs(got-res.Cost) > 1e-6 {
			t.Fatalf("trial %d: reported cost %v != recomputed %v", trial, res.Cost, got)
		}
	}
}

func TestSolveFullCoverageTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomInstance(rng, 6, 10, 2)
	res := Solve(in, in.TotalUtility(), Options{})
	if !res.Achieved {
		t.Fatalf("full-utility target unreachable: %v < %v", res.Utility, in.TotalUtility())
	}
}

func TestBaselinesReachTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(rng, 8, 15, 3)
		target := in.TotalUtility() * 0.4
		for name, res := range map[string]Result{
			"RAND(G)": SolveRand(in, target, int64(trial+1)),
			"IG1(G)":  SolveIG1(in, target),
			"IG2(G)":  SolveIG2(in, target),
		} {
			if !res.Achieved {
				t.Fatalf("trial %d: %s missed target %v (utility %v)",
					trial, name, target, res.Utility)
			}
		}
	}
}

func TestAGMC3CheaperOrEqualOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ours, ig1, ig2, rnd float64
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(rng, 10, 20, 3)
		target := in.TotalUtility() * 0.5
		ours += Solve(in, target, Options{Seed: int64(trial + 1)}).Cost
		ig1 += SolveIG1(in, target).Cost
		ig2 += SolveIG2(in, target).Cost
		rnd += SolveRand(in, target, int64(trial+1)).Cost
	}
	if ours > ig1+1e-9 && ours > ig2+1e-9 {
		t.Fatalf("A^GMC3 total cost %.1f worse than both IG1 %.1f and IG2 %.1f", ours, ig1, ig2)
	}
	if ours > rnd {
		t.Fatalf("A^GMC3 total cost %.1f worse than RAND %.1f", ours, rnd)
	}
}

func TestUnreachableTargetReturnsFullCover(t *testing.T) {
	b := model.NewBuilder()
	b.AddQuery(5, "a")
	b.SetCost(2, "a")
	in := b.MustInstance(0)
	res := Solve(in, 100, Options{}) // target above total utility
	if res.Achieved {
		t.Fatal("unreachable target reported achieved")
	}
	if res.Utility != 5 {
		t.Fatalf("full cover should still be returned: utility %v", res.Utility)
	}
}

func TestZeroTarget(t *testing.T) {
	b := model.NewBuilder()
	b.AddQuery(5, "a")
	b.SetCost(2, "a")
	in := b.MustInstance(0)
	res := Solve(in, 0, Options{})
	if !res.Achieved {
		t.Fatal("zero target must be trivially achieved")
	}
	if res.Cost != 0 {
		t.Fatalf("zero target should cost nothing, got %v", res.Cost)
	}
}

// TestIG1Deterministic solves IG1(G) six times on one Private-like
// instance. Its queue breaks score ties by query index, so every run
// must select the same classifiers.
func TestIG1Deterministic(t *testing.T) {
	in := dataset.Private(503, 1600)
	target := 0.3 * in.TotalUtility()
	var first []string
	for run := 0; run < 6; run++ {
		var keys []string
		for _, c := range SolveIG1(in, target).Solution.Classifiers() {
			keys = append(keys, c.Props.Key())
		}
		if run == 0 {
			first = keys
		} else if !slices.Equal(first, keys) {
			t.Fatalf("run %d: IG1(G) plan differs from run 0 (%d vs %d classifiers)", run, len(keys), len(first))
		}
	}
}
