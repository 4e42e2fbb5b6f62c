package cover

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/propset"
)

func smallInstance(t testing.TB) *model.Instance {
	t.Helper()
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
	return b.MustInstance(11)
}

func TestTrackerMatchesSolution(t *testing.T) {
	// Property: tracker accounting must agree with the (slow) Solution
	// reference implementation after any add sequence.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(rng)
		tr := New(in)
		sol := model.NewSolution(in)
		cls := in.Classifiers()
		for step := 0; step < 1+rng.Intn(8); step++ {
			c := cls[rng.Intn(len(cls))]
			tr.Add(c.Props)
			sol.Add(c.Props)
		}
		if math.Abs(tr.Utility()-sol.Utility()) > 1e-9 {
			t.Fatalf("trial %d: tracker utility %v != solution %v",
				trial, tr.Utility(), sol.Utility())
		}
		if math.Abs(tr.Cost()-sol.Cost()) > 1e-9 {
			t.Fatalf("trial %d: tracker cost %v != solution %v",
				trial, tr.Cost(), sol.Cost())
		}
		for qi, q := range in.Queries() {
			if tr.Covered(qi) != sol.Covers(q.Props) {
				t.Fatalf("trial %d: covered mismatch on %v", trial, q.Props)
			}
			if !tr.Residual(qi).Equal(sol.Residual(q.Props)) {
				t.Fatalf("trial %d: residual mismatch on %v", trial, q.Props)
			}
		}
	}
}

func randomInstance(rng *rand.Rand) *model.Instance {
	b := model.NewBuilder()
	u := b.Universe()
	names := make([]string, 6)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	nq := 3 + rng.Intn(8)
	for i := 0; i < nq; i++ {
		ln := 1 + rng.Intn(3)
		ids := make([]propset.ID, ln)
		for j := range ids {
			ids[j] = u.Intern(names[rng.Intn(len(names))])
		}
		b.AddQuerySet(propset.New(ids...), 1+float64(rng.Intn(9)))
	}
	seed := rng.Int63()
	b.SetDefaultCost(func(s propset.Set) float64 {
		h := seed
		for _, id := range s {
			h = h*37 + int64(id) + 3
		}
		return float64((h%5+5)%5) + 1
	})
	return b.MustInstance(10)
}

func TestAddIdempotent(t *testing.T) {
	in := smallInstance(t)
	tr := New(in)
	yz := in.Universe().SetOf("y", "z")
	if !tr.Add(yz) {
		t.Fatal("first Add returned false")
	}
	cost := tr.Cost()
	if tr.Add(yz) {
		t.Fatal("second Add returned true")
	}
	if tr.Cost() != cost {
		t.Fatal("idempotent Add changed cost")
	}
}

func TestCloneIsolation(t *testing.T) {
	in := smallInstance(t)
	tr := New(in)
	tr.Add(in.Universe().SetOf("y", "z"))
	cl := tr.Clone()
	cl.Add(in.Universe().SetOf("x", "z"))
	if tr.Utility() == cl.Utility() {
		t.Fatal("clone add leaked or had no effect")
	}
	if tr.Has(in.Universe().SetOf("x", "z")) {
		t.Fatal("clone mutated original")
	}
}

func TestCopyFrom(t *testing.T) {
	in := smallInstance(t)
	a := New(in)
	a.Add(in.Universe().SetOf("x"))
	b := New(in)
	b.Add(in.Universe().SetOf("y", "z"))
	b.Add(in.Universe().SetOf("x", "z"))
	a.CopyFrom(b)
	if a.Utility() != b.Utility() || a.Cost() != b.Cost() {
		t.Fatal("CopyFrom accounting mismatch")
	}
	if a.Has(in.Universe().SetOf("x")) {
		t.Fatal("CopyFrom retained stale selection")
	}
}

func TestResetMatchesFresh(t *testing.T) {
	in := smallInstance(t)
	tr := New(in)
	tr.Add(in.Universe().SetOf("x"))
	tr.Add(in.Universe().SetOf("y"))
	sets := []propset.Set{in.Universe().SetOf("y", "z"), in.Universe().SetOf("x", "z")}
	var idx []int32
	for _, s := range sets {
		ci, ok := in.ClassifierIndex(s)
		if !ok {
			t.Fatalf("%v is not a classifier", s)
		}
		idx = append(idx, int32(ci))
	}
	tr.ResetIndex(idx)
	fresh := New(in)
	for _, s := range sets {
		fresh.Add(s)
	}
	if tr.Utility() != fresh.Utility() || tr.Cost() != fresh.Cost() {
		t.Fatalf("Reset state (%v,%v) != fresh (%v,%v)",
			tr.Utility(), tr.Cost(), fresh.Utility(), fresh.Cost())
	}
}

func TestMinCoverCostAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 120; trial++ {
		in := randomInstance(rng)
		tr := New(in)
		// Partially select a few classifiers first.
		cls := in.Classifiers()
		for i := 0; i < rng.Intn(3); i++ {
			tr.Add(cls[rng.Intn(len(cls))].Props)
		}
		for qi, q := range in.Queries() {
			got, cover := tr.MinCover(qi, nil)
			want := bruteMinCover(in, tr, q.Props)
			if math.Abs(got-want) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d query %v: MinCover %v != brute %v",
					trial, q.Props, got, want)
			}
			if math.IsInf(got, 1) {
				continue
			}
			// The returned sets, together with the current selection, must
			// cover the query at the reported cost.
			probe := tr.Clone()
			var sum float64
			for _, ci := range cover {
				sum += cls[ci].Cost
				probe.AddIndex(int(ci))
			}
			if !probe.Covered(qi) {
				t.Fatalf("trial %d: reported cover does not cover %v", trial, q.Props)
			}
			if math.Abs(sum-got) > 1e-9 {
				t.Fatalf("trial %d: cover sets cost %v != reported %v", trial, sum, got)
			}
		}
	}
}

// bruteMinCover enumerates subsets of the relevant classifiers.
func bruteMinCover(in *model.Instance, tr *Tracker, q propset.Set) float64 {
	var cands []propset.Set
	q.Subsets(func(sub propset.Set) {
		if !tr.Has(sub) && !math.IsInf(in.Cost(sub), 1) {
			cands = append(cands, sub.Clone())
		}
	})
	res := q.Minus(coveredPart(in, tr, q))
	if res.Empty() {
		return 0
	}
	best := math.Inf(1)
	for mask := 1; mask < 1<<len(cands); mask++ {
		var acc propset.Set
		var cost float64
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				acc = acc.Union(c)
				cost += in.Cost(c)
			}
		}
		if res.SubsetOf(acc) && cost < best {
			best = cost
		}
	}
	return best
}

func coveredPart(in *model.Instance, tr *Tracker, q propset.Set) propset.Set {
	var acc propset.Set
	q.Subsets(func(sub propset.Set) {
		if tr.Has(sub) {
			acc = acc.Union(sub)
		}
	})
	return acc
}

func TestUtilityNeverDecreases(t *testing.T) {
	// quick.Check over random add orders: utility and cost are monotone.
	f := func(seed int64, picks []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		tr := New(in)
		cls := in.Classifiers()
		prevU, prevC := 0.0, 0.0
		for _, p := range picks {
			tr.Add(cls[int(p)%len(cls)].Props)
			if tr.Utility() < prevU || tr.Cost() < prevC {
				return false
			}
			prevU, prevC = tr.Utility(), tr.Cost()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveInvertsAdd(t *testing.T) {
	// Property: Add then Remove restores exactly the previous accounting,
	// regardless of the interleaving.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(rng)
		tr := New(in)
		cls := in.Classifiers()
		for i := 0; i < rng.Intn(5); i++ {
			tr.Add(cls[rng.Intn(len(cls))].Props)
		}
		u0, c0, ct0 := tr.Utility(), tr.Cost(), tr.CoveredCount()
		c := cls[rng.Intn(len(cls))]
		if !tr.Add(c.Props) {
			continue // already selected
		}
		if !tr.Remove(c.Props) {
			t.Fatal("Remove of selected classifier returned false")
		}
		if tr.Utility() != u0 || tr.Cost() != c0 || tr.CoveredCount() != ct0 {
			t.Fatalf("trial %d: remove did not invert add: (%v,%v,%d) vs (%v,%v,%d)",
				trial, tr.Utility(), tr.Cost(), tr.CoveredCount(), u0, c0, ct0)
		}
		// Residuals must match a freshly built tracker.
		fresh := New(in)
		for _, s := range tr.SelectedSets() {
			fresh.Add(s)
		}
		for qi := range in.Queries() {
			if !tr.Residual(qi).Equal(fresh.Residual(qi)) {
				t.Fatalf("trial %d: residual mismatch after remove", trial)
			}
		}
	}
}

func TestRemoveUnselected(t *testing.T) {
	in := smallInstance(t)
	tr := New(in)
	if tr.Remove(in.Universe().SetOf("x")) {
		t.Fatal("Remove of unselected classifier returned true")
	}
}

func TestRelevantQueries(t *testing.T) {
	in := smallInstance(t)
	tr := New(in)
	x := in.Universe().SetOf("x")
	rel := tr.RelevantQueries(x)
	if len(rel) != 3 { // x appears in all three queries
		t.Fatalf("RelevantQueries(X) = %v, want 3 entries", rel)
	}
	yz := in.Universe().SetOf("y", "z")
	rel = tr.RelevantQueries(yz)
	if len(rel) != 1 { // only xyz contains both y and z
		t.Fatalf("RelevantQueries(YZ) = %v, want 1 entry", rel)
	}
}

func BenchmarkTrackerAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	builder := model.NewBuilder()
	u := builder.Universe()
	for i := 0; i < 5000; i++ {
		ln := 1 + rng.Intn(3)
		ids := make([]propset.ID, ln)
		for j := range ids {
			ids[j] = u.Intern(fmt.Sprintf("p%d", rng.Intn(500)))
		}
		builder.AddQuerySet(propset.New(ids...), 1)
	}
	in := builder.MustInstance(1000)
	cls := in.Classifiers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := New(in)
		b.StartTimer()
		for _, c := range cls {
			tr.Add(c.Props)
		}
	}
}
