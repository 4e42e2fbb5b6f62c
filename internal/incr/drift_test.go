package incr

import (
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/propset"
)

// TestWarmDriftSpeedup is the PR 10 acceptance benchmark in test form:
// on a 1%-churn re-solve of the synthetic-2000-b800 workload, a warm
// A^BCC run (seeded with the repaired previous plan, repair time
// included) must be at least 3x faster than the cold run while meeting
// the algorithm's registered EvalFloor against the cold utility. The
// same sweep is recorded in BENCH_PR10.json by make bench-json.
//
// The margin over the bar is not wide: each side is timed once, and on
// a 2-vCPU VM ten runs read 3.6–7.9x (5.96–9.28x in three runs under
// the race detector), while a solver whose MC3 pass was slower read
// 2.9–6.9x and fell below the bar in one of ten. A loaded machine need
// not slow both sides by the same factor.
func TestWarmDriftSpeedup(t *testing.T) {
	const seed, nQueries, budget, churn = 1, 2000, 800.0, 0.01

	base := dataset.Synthetic(seed, nQueries, budget)
	baseRes := core.Solve(base, core.Options{Seed: seed})
	if baseRes.Utility <= 0 {
		t.Fatal("base solve found nothing; workload unusable")
	}
	var baseSets []propset.Set
	for _, c := range baseRes.Solution.Classifiers() {
		baseSets = append(baseSets, c.Props)
	}
	plan := planNames(base, baseSets)

	drift := dataset.SyntheticDrift(seed, nQueries, budget, churn)
	if d := Diff(base, drift); d.Added == 0 || d.Removed == 0 {
		t.Fatalf("drift produced no churn: %+v", d)
	}

	t0 := time.Now()
	cold := core.Solve(drift, core.Options{Seed: seed})
	coldDur := time.Since(t0)

	t0 = time.Now()
	warmSets := Repair(drift, plan)
	warm := core.Solve(drift, core.Options{Seed: seed, Warm: warmSets})
	warmDur := time.Since(t0)

	if len(warmSets) == 0 {
		t.Fatal("repair kept nothing of the previous plan at 1% churn")
	}
	if warm.Cost > budget+1e-9 {
		t.Errorf("warm solve blew the budget: %v > %v", warm.Cost, budget)
	}

	d, ok := algo.Lookup("abcc")
	if !ok {
		t.Fatal("abcc not registered")
	}
	floor := d.EvalFloor
	if ratio := warm.Utility / cold.Utility; ratio < floor {
		t.Errorf("warm utility ratio %.4f below EvalFloor %.2f (warm=%v cold=%v)",
			ratio, floor, warm.Utility, cold.Utility)
	}
	if speedup := float64(coldDur) / float64(warmDur); speedup < 3 {
		t.Errorf("warm speedup %.2fx below the 3x acceptance bar (cold=%v warm=%v)",
			speedup, coldDur, warmDur)
	} else {
		t.Logf("warm speedup %.2fx (cold=%v warm=%v ratio=%.4f)",
			speedup, coldDur, warmDur, warm.Utility/cold.Utility)
	}
}
