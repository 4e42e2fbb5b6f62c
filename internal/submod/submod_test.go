package submod

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/propset"
)

// randomInstance mirrors the generator of internal/core's tests so the
// anytime-contract suite runs on comparable workloads.
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

func anytimeInstance(seed int64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return randomInstance(rng, 30, 400, 3, 60)
}

func checkFeasible(t *testing.T, in *model.Instance, res Result) {
	t.Helper()
	if res.Solution == nil {
		t.Fatal("nil Solution")
	}
	if res.Cost > in.Budget()+1e-9 {
		t.Fatalf("cost %v exceeds budget %v", res.Cost, in.Budget())
	}
	if got := res.Solution.Cost(); got > in.Budget()+1e-9 {
		t.Fatalf("solution cost %v exceeds budget %v", got, in.Budget())
	}
}

func TestSolveFeasibleAndNeverBelowIG1(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in := anytimeInstance(seed)
		res := Solve(in, Options{})
		if res.Status != guard.Complete {
			t.Fatalf("seed %d: Status = %v, want Complete", seed, res.Status)
		}
		checkFeasible(t, in, res)
		ig1 := core.SolveIG1(in)
		if res.Utility < ig1.Utility {
			t.Errorf("seed %d: utility %v below IG1 floor %v", seed, res.Utility, ig1.Utility)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	in := anytimeInstance(7)
	a := Solve(in, Options{})
	b := Solve(in, Options{})
	if a.Utility != b.Utility || a.Cost != b.Cost || a.Steps != b.Steps {
		t.Fatalf("two runs diverged: %v/%v vs %v/%v", a.Utility, a.Cost, b.Utility, b.Cost)
	}
	ca, cb := a.Solution.Classifiers(), b.Solution.Classifiers()
	if len(ca) != len(cb) {
		t.Fatalf("plans differ in size: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if !ca[i].Props.Equal(cb[i].Props) {
			t.Fatalf("plan diverged at %d: %v vs %v", i, ca[i].Props, cb[i].Props)
		}
	}
}

func TestWarmStartNeverRegresses(t *testing.T) {
	in := anytimeInstance(8)
	first := Solve(in, Options{})
	var warm []propset.Set
	for _, c := range first.Solution.Classifiers() {
		warm = append(warm, c.Props)
	}
	// Even with the floor disabled, a warm-started run must keep the
	// incumbent it was given (the checkpointed-slice contract).
	res := Solve(in, Options{Warm: warm, DisableGreedyFloor: true})
	checkFeasible(t, in, res)
	if res.Utility < first.Utility {
		t.Errorf("warm-started utility %v below incumbent %v", res.Utility, first.Utility)
	}
}

func TestExpiredDeadlineReturnsFast(t *testing.T) {
	in := anytimeInstance(1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res := SolveCtx(ctx, in, Options{})
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("expired-context solve took %v, want < 10ms", elapsed)
	}
	if res.Status != guard.DeadlineExceeded {
		t.Errorf("Status = %v, want DeadlineExceeded", res.Status)
	}
	if res.Err == nil {
		t.Error("Err = nil on a deadline-exceeded run")
	}
	checkFeasible(t, in, res)
}

func TestGenerousDeadlineMatchesSolve(t *testing.T) {
	in := anytimeInstance(2)
	plain := Solve(in, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res := SolveCtx(ctx, in, Options{})
	if res.Status != guard.Complete {
		t.Fatalf("Status = %v (err %v), want Complete", res.Status, res.Err)
	}
	if res.Utility != plain.Utility || res.Cost != plain.Cost {
		t.Errorf("generous deadline diverged: utility %v/%v, cost %v/%v",
			res.Utility, plain.Utility, res.Cost, plain.Cost)
	}
}

func TestCancelBeforePassesKeepsIG1Floor(t *testing.T) {
	// The floor runs before the greedy passes, so a cancellation armed at
	// the first pass boundary must still return at least the IG1 result.
	in := anytimeInstance(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	guard.Arm("submod.pass", guard.CancelFault(cancel))
	defer guard.DisarmAll()
	res := SolveCtx(ctx, in, Options{})
	if res.Status != guard.Canceled {
		t.Errorf("Status = %v, want Canceled", res.Status)
	}
	checkFeasible(t, in, res)
	ig1 := core.SolveIG1(in)
	if res.Utility < ig1.Utility {
		t.Errorf("canceled run utility %v below IG1 floor %v", res.Utility, ig1.Utility)
	}
}

func TestCancelMidPassKeepsIG1Floor(t *testing.T) {
	in := anytimeInstance(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	guard.Arm("submod.step", guard.CancelFault(cancel))
	defer guard.DisarmAll()
	res := SolveCtx(ctx, in, Options{})
	if res.Status != guard.Canceled {
		t.Errorf("Status = %v, want Canceled", res.Status)
	}
	checkFeasible(t, in, res)
	ig1 := core.SolveIG1(in)
	if res.Utility < ig1.Utility {
		t.Errorf("canceled run utility %v below IG1 floor %v", res.Utility, ig1.Utility)
	}
}

func TestArmedPanicSurfacesAsRecovered(t *testing.T) {
	in := anytimeInstance(5)
	guard.Arm("submod.pass", guard.PanicFault("injected: submod.pass"))
	defer guard.DisarmAll()
	res := SolveCtx(context.Background(), in, Options{})
	if res.Status != guard.Recovered {
		t.Fatalf("Status = %v, want Recovered", res.Status)
	}
	if res.Err == nil {
		t.Fatal("Err = nil on a recovered run")
	}
	checkFeasible(t, in, res)
}

func TestDisableGreedyFloor(t *testing.T) {
	in := anytimeInstance(6)
	res := Solve(in, Options{DisableGreedyFloor: true})
	if res.Status != guard.Complete {
		t.Fatalf("Status = %v, want Complete", res.Status)
	}
	checkFeasible(t, in, res)
	if res.Utility <= 0 {
		t.Errorf("utility = %v, want > 0", res.Utility)
	}
}

// TestScorerGainAllocs pins the lazy-queue hot path, the tracker's
// ProgressGain, at zero allocations: it must stay a pure mask count over
// the precomputed occurrence lists (propset.Key and any set
// materialization are banned from it).
func TestScorerGainAllocs(t *testing.T) {
	in := anytimeInstance(9)
	tr := cover.New(in)
	// Partial coverage makes gain exercise the covered, partially
	// covered and untouched branches.
	cl := in.Classifiers()
	for i := 0; i < len(cl); i += 7 {
		if cl[i].Cost <= tr.Remaining() {
			tr.Add(cl[i].Props)
		}
	}
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		for ci := 0; ci < len(cl); ci += 3 {
			sink += tr.ProgressGain(ci)
		}
	})
	if allocs != 0 {
		t.Errorf("ProgressGain allocates %v per run, want 0", allocs)
	}
	_ = sink
}

func TestLazyHeapOrdering(t *testing.T) {
	h := make(lazyHeap, 0, 8)
	for _, s := range []float64{3, 1, 4, 1.5, 9, 2.6} {
		h.push(centry{ci: int(s * 10), score: s})
	}
	prev := float64(10)
	for len(h) > 0 {
		e := h.pop()
		if e.score > prev {
			t.Fatalf("heap popped %v after %v", e.score, prev)
		}
		prev = e.score
	}
}
