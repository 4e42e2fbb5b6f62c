package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cover"
	"repro/internal/model"
	"repro/internal/propset"
)

// ig1Instance draws a tie-heavy instance with query lengths 1..maxLen:
// small integer utilities (some 0), a seeded default price in halves
// (some 0), and explicit prices at +Inf, 0, an integer or tenths.
func ig1Instance(rng *rand.Rand, maxLen int) *model.Instance {
	b := model.NewBuilder()
	u := b.Universe()
	names := make([]string, maxLen+1+rng.Intn(6))
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	pick := func(ln int) propset.Set {
		ids := make([]propset.ID, ln)
		for j, p := range rng.Perm(len(names))[:ln] {
			ids[j] = u.Intern(names[p])
		}
		return propset.New(ids...)
	}
	for q := 0; q < 4+rng.Intn(28); q++ {
		ln := 1 + rng.Intn(maxLen)
		if q == 0 {
			ln = maxLen
		}
		b.AddQuerySet(pick(ln), float64(rng.Intn(6)))
	}
	for k := rng.Intn(10); k > 0; k-- {
		price := []float64{math.Inf(1), 0, float64(1 + rng.Intn(4)), float64(rng.Intn(30)) / 10}[rng.Intn(4)]
		b.SetCostSet(pick(1+rng.Intn(min(maxLen, 3))), price)
	}
	seed := rng.Int63()
	b.SetDefaultCost(func(s propset.Set) float64 {
		h := seed
		for _, id := range s {
			h = h*37 + int64(id) + 3
		}
		return float64((h%6+6)%6) / 2
	})
	return b.MustInstance(float64(rng.Intn(24)) / 2)
}

// ig1Run is what one IG1 loop did: its covers in selection order, the
// utility and cost its callback saw after each, its step count and the
// tracker it left.
type ig1Run struct {
	covers [][]int32
	seen   []float64
	steps  int
	t      *cover.Tracker
}

// runIG1 runs loop on a clone of start. With a target it stops as GMC3's
// IG1(G) does, once the utility reaches the target; every selected cover
// goes through a callback that, like ECC's IG1(E), reads the tracker's
// utility and cost.
func runIG1(loop func(*cover.Tracker, bool, func() bool, func([]int32)) int, start *cover.Tracker, budgeted bool, target float64) ig1Run {
	r := ig1Run{t: start.Clone()}
	var stop func() bool
	if target > 0 {
		stop = func() bool { return r.t.Utility() >= target-1e-9 }
	}
	r.steps = loop(r.t, budgeted, stop, func(c []int32) {
		r.covers = append(r.covers, slices.Clone(c))
		r.seen = append(r.seen, r.t.Utility(), r.t.Cost())
	})
	return r
}

// TestIG1LoopMatchesOracle compares IG1Loop with the boxed, unfiltered
// loop it replaced (oracleIG1Loop) on 360 random instances, l = 1–6:
// fresh and partly filled trackers, budgeted and unbudgeted runs, with
// and without a GMC3-style target. Both must select the same covers in
// the same order, take the same number of steps and leave the same cost
// and utility bits.
func TestIG1LoopMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	runs, passedOver := 0, 0
	for trial := 0; trial < 360; trial++ {
		maxLen := 1 + trial%6
		in := ig1Instance(rng, maxLen)
		starts := []*cover.Tracker{cover.New(in)}
		if nc := len(in.Classifiers()); nc > 0 {
			partial := cover.New(in)
			for k := rng.Intn(4); k >= 0; k-- {
				partial.AddIndex(rng.Intn(nc))
			}
			starts = append(starts, partial)
		}
		for si, start := range starts {
			for _, budgeted := range []bool{true, false} {
				for _, target := range []float64{0, in.TotalUtility() * float64(1+rng.Intn(9)) / 10} {
					name := fmt.Sprintf("trial %d (l=%d, %d queries, B=%v) start %d budgeted=%v target=%v",
						trial, maxLen, in.NumQueries(), in.Budget(), si, budgeted, target)
					got := runIG1(IG1Loop, start, budgeted, target)
					want := runIG1(oracleIG1Loop, start, budgeted, target)
					compareIG1Runs(t, name, got, want)
					runs++
					if budgeted && passedOverCover(got.t) {
						passedOver++
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d passed a cover over for the budget", runs, passedOver)
	// The budget filter must have been exercised: runs that ended with
	// an uncovered query whose cover exists but does not fit.
	if passedOver < runs/10 {
		t.Fatalf("only %d of %d runs passed a cover over for the budget", passedOver, runs)
	}
}

func compareIG1Runs(t *testing.T, name string, got, want ig1Run) {
	t.Helper()
	if got.steps != want.steps {
		t.Fatalf("%s: %d steps, oracle %d", name, got.steps, want.steps)
	}
	if !slices.EqualFunc(got.covers, want.covers, slices.Equal[[]int32]) {
		t.Fatalf("%s: covers %v, oracle %v", name, got.covers, want.covers)
	}
	if !slices.Equal(got.seen, want.seen) {
		t.Fatalf("%s: callback saw utility, cost %v, oracle %v", name, got.seen, want.seen)
	}
	if g, w := math.Float64bits(got.t.Cost()), math.Float64bits(want.t.Cost()); g != w {
		t.Fatalf("%s: cost %v, oracle %v", name, got.t.Cost(), want.t.Cost())
	}
	if g, w := math.Float64bits(got.t.Utility()), math.Float64bits(want.t.Utility()); g != w {
		t.Fatalf("%s: utility %v, oracle %v", name, got.t.Utility(), want.t.Utility())
	}
}

// passedOverCover reports whether some uncovered query of positive
// utility has a finite cover that exceeds the tracker's remaining budget.
func passedOverCover(t *cover.Tracker) bool {
	for qi, q := range t.Instance().Queries() {
		if t.Covered(qi) || q.Utility == 0 {
			continue
		}
		if c := t.MinCoverCost(qi, nil); !math.IsInf(c, 1) && c > t.Remaining()+1e-9 {
			return true
		}
	}
	return false
}

// TestQHeapAllocs pins IG1's heap push and pop at zero allocations once
// the backing slice has room: the loop runs them on every step.
func TestQHeapAllocs(t *testing.T) {
	h := make(qHeap, 0, 64)
	for qi := 0; qi < 32; qi++ {
		h.push(qEntry{qi, float64(qi % 5)})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := h.pop()
		e.score++
		h.push(e)
	})
	if allocs != 0 {
		t.Errorf("qHeap push+pop allocates %v per run, want 0", allocs)
	}
}
