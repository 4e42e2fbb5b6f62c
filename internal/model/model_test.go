package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/propset"
)

// fig1Instance builds the shared input of Figure 1 in the paper:
// Q = {xyz, xz, xy}, U(xyz)=8, U(xz)=1, U(xy)=2,
// C(X)=5, C(Y)=C(Z)=C(XYZ)=3, C(XZ)=4, C(YZ)=0, C(XY)=∞.
func fig1Instance(t testing.TB, budget float64) *Instance {
	t.Helper()
	b := NewBuilder()
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

func set(in *Instance, names ...string) propset.Set {
	return in.Universe().SetOf(names...)
}

func TestBuilderBasics(t *testing.T) {
	in := fig1Instance(t, 3)
	if in.NumQueries() != 3 {
		t.Fatalf("NumQueries = %d, want 3", in.NumQueries())
	}
	if in.NumProperties() != 3 {
		t.Fatalf("NumProperties = %d, want 3", in.NumProperties())
	}
	if in.MaxQueryLength() != 3 {
		t.Fatalf("MaxQueryLength = %d, want 3", in.MaxQueryLength())
	}
	if got := in.TotalUtility(); got != 11 {
		t.Fatalf("TotalUtility = %v, want 11", got)
	}
}

func TestClassifierEnumerationExcludesInfinite(t *testing.T) {
	in := fig1Instance(t, 3)
	// CL without XY (infinite) has 6 members: X, Y, Z, XZ, YZ, XYZ.
	if got := len(in.Classifiers()); got != 6 {
		t.Fatalf("|CL| = %d, want 6 (got %v)", got, in.Classifiers())
	}
	if _, ok := in.ClassifierIndex(set(in, "x", "y")); ok {
		t.Fatal("infinite-cost classifier XY should be excluded from CL")
	}
	if math.IsInf(in.Cost(set(in, "x", "y")), 1) != true {
		t.Fatal("Cost(XY) should be +Inf")
	}
}

func TestClassifierEnumerationOnlyQuerySubsets(t *testing.T) {
	// Paper §2.1: P = {x,y,z}, Q = {xy, xz} ⇒ CL = {X, Y, Z, XY, XZ};
	// YZ must not appear since no query contains both y and z.
	b := NewBuilder()
	b.AddQuery(1, "x", "y")
	b.AddQuery(1, "x", "z")
	in := b.MustInstance(10)
	if got := len(in.Classifiers()); got != 5 {
		t.Fatalf("|CL| = %d, want 5: %v", got, in.Classifiers())
	}
	yz := in.Universe().SetOf("y", "z")
	if _, ok := in.ClassifierIndex(yz); ok {
		t.Fatal("YZ should not be in CL")
	}
}

func TestDuplicateQueriesAccumulateUtility(t *testing.T) {
	b := NewBuilder()
	b.AddQuery(3, "a", "b")
	b.AddQuery(4, "b", "a") // same conjunction
	in := b.MustInstance(1)
	if in.NumQueries() != 1 {
		t.Fatalf("NumQueries = %d, want 1", in.NumQueries())
	}
	if u := in.Queries()[0].Utility; u != 7 {
		t.Fatalf("utility = %v, want 7", u)
	}
}

func TestDefaultCostUniform(t *testing.T) {
	b := NewBuilder()
	b.AddQuery(1, "a", "b")
	in := b.MustInstance(5)
	for _, c := range in.Classifiers() {
		if c.Cost != 1 {
			t.Fatalf("default cost = %v, want 1", c.Cost)
		}
	}
}

func TestDefaultCostFunc(t *testing.T) {
	b := NewBuilder()
	b.AddQuery(1, "a", "b")
	b.SetDefaultCost(func(s propset.Set) float64 { return float64(s.Len()) * 2 })
	in := b.MustInstance(5)
	ab := in.Universe().SetOf("a", "b")
	if got := in.Cost(ab); got != 4 {
		t.Fatalf("Cost(AB) = %v, want 4", got)
	}
	a := in.Universe().SetOf("a")
	if got := in.Cost(a); got != 2 {
		t.Fatalf("Cost(A) = %v, want 2", got)
	}
}

func TestInstanceValidation(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Instance(1); err == nil {
		t.Fatal("empty instance should fail")
	}
	b.AddQuery(1, "a")
	if _, err := b.Instance(-1); err == nil {
		t.Fatal("negative budget should fail")
	}
	b2 := NewBuilder()
	b2.AddQuery(-5, "a")
	if _, err := b2.Instance(1); err == nil {
		t.Fatal("negative utility should fail")
	}
	b3 := NewBuilder()
	b3.AddQuery(1, "a")
	b3.SetCost(-2, "a")
	if _, err := b3.Instance(1); err == nil {
		t.Fatal("negative cost should fail")
	}
}

func TestCoverageSemantics(t *testing.T) {
	in := fig1Instance(t, 4)
	s := NewSolution(in)
	xyz := set(in, "x", "y", "z")
	xz := set(in, "x", "z")
	xy := set(in, "x", "y")

	if s.Covers(xyz) || s.Covers(xz) || s.Covers(xy) {
		t.Fatal("empty solution covers nothing")
	}
	// Paper Example 2.1 (B=4): {YZ, XZ} covers xyz and xz but not xy.
	s.Add(set(in, "y", "z"))
	s.Add(set(in, "x", "z"))
	if !s.Covers(xyz) {
		t.Error("YZ+XZ should cover xyz")
	}
	if !s.Covers(xz) {
		t.Error("XZ should cover xz")
	}
	if s.Covers(xy) {
		t.Error("YZ+XZ must not cover xy")
	}
	if got := s.Utility(); got != 9 {
		t.Errorf("Utility = %v, want 9", got)
	}
	if got := s.Cost(); got != 4 {
		t.Errorf("Cost = %v, want 4", got)
	}
	if !s.Feasible() {
		t.Error("solution of cost 4 must be feasible at budget 4")
	}
}

func TestCoverageIsExact(t *testing.T) {
	// A classifier strictly containing the query does NOT cover it: the
	// union must equal the query exactly.
	b := NewBuilder()
	b.AddQuery(1, "a")
	b.AddQuery(1, "a", "b")
	in := b.MustInstance(10)
	s := NewSolution(in)
	s.Add(in.Universe().SetOf("a", "b"))
	if s.Covers(in.Universe().SetOf("a")) {
		t.Fatal("AB must not cover the singleton query a")
	}
	if !s.Covers(in.Universe().SetOf("a", "b")) {
		t.Fatal("AB must cover ab")
	}
}

func TestResidual(t *testing.T) {
	in := fig1Instance(t, 11)
	s := NewSolution(in)
	xyz := set(in, "x", "y", "z")
	if got := s.Residual(xyz); !got.Equal(xyz) {
		t.Fatalf("Residual of empty solution = %v, want %v", got, xyz)
	}
	s.Add(set(in, "y", "z"))
	if got := s.Residual(xyz); !got.Equal(set(in, "x")) {
		t.Fatalf("Residual after YZ = %v, want {x}", got)
	}
	s.Add(set(in, "x"))
	if got := s.Residual(xyz); !got.Empty() {
		t.Fatalf("Residual after YZ+X = %v, want empty", got)
	}
}

func TestFigure1OptimaAreFeasibleAndValued(t *testing.T) {
	// Golden values from Figure 1 of the paper.
	cases := []struct {
		budget  float64
		picks   [][]string
		utility float64
	}{
		{3, [][]string{{"y", "z"}, {"x", "y", "z"}}, 8},
		{4, [][]string{{"y", "z"}, {"x", "z"}}, 9},
		{11, [][]string{{"y", "z"}, {"x"}, {"y"}, {"z"}}, 11},
	}
	for _, c := range cases {
		in := fig1Instance(t, c.budget)
		s := NewSolution(in)
		for _, p := range c.picks {
			s.Add(in.Universe().SetOf(p...))
		}
		if !s.Feasible() {
			t.Errorf("B=%v: depicted solution infeasible (cost %v)", c.budget, s.Cost())
		}
		if got := s.Utility(); got != c.utility {
			t.Errorf("B=%v: utility = %v, want %v", c.budget, got, c.utility)
		}
	}
}

func TestSolutionAddRemoveClone(t *testing.T) {
	in := fig1Instance(t, 11)
	s := NewSolution(in)
	x := set(in, "x")
	if !s.Add(x) {
		t.Fatal("first Add returned false")
	}
	if s.Add(x) {
		t.Fatal("duplicate Add returned true")
	}
	if s.Size() != 1 || !s.Has(x) {
		t.Fatal("Add bookkeeping broken")
	}
	cl := s.Clone()
	s.Remove(x)
	if s.Has(x) {
		t.Fatal("Remove did not remove")
	}
	if !cl.Has(x) {
		t.Fatal("Clone aliases the original")
	}
}

func TestAddClassifierOverridesCost(t *testing.T) {
	in := fig1Instance(t, 11)
	s := NewSolution(in)
	s.AddClassifier(Classifier{Props: set(in, "x"), Cost: 0})
	if got := s.Cost(); got != 0 {
		t.Fatalf("Cost = %v, want 0 (override)", got)
	}
}

// A plan's cost must not depend on map iteration order: with fractional
// prices, floating-point addition is not associative, so summing in
// whatever order the selected map yields gives different low bits.
func TestSolutionCostBitStable(t *testing.T) {
	b := NewBuilder()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		p := fmt.Sprintf("p%02d", i)
		b.AddQuery(1, p)
		b.SetCost(rng.Float64()*10+0.1, p)
	}
	in := b.MustInstance(1000)
	s := NewSolution(in)
	var want float64
	for _, c := range in.Classifiers() {
		s.Add(c.Props)
	}
	for _, c := range s.Classifiers() {
		want += c.Cost
	}
	for i := 0; i < 50; i++ {
		if got := s.Clone().Cost(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Cost = %v (bits %#x), want %v (bits %#x) summed in classifier order",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestMerge(t *testing.T) {
	in := fig1Instance(t, 11)
	a := NewSolution(in)
	a.Add(set(in, "x"))
	b := NewSolution(in)
	b.Add(set(in, "y"))
	b.Add(set(in, "x"))
	a.Merge(b)
	if a.Size() != 2 {
		t.Fatalf("merged size = %d, want 2", a.Size())
	}
}

func TestWithBudget(t *testing.T) {
	in := fig1Instance(t, 3)
	in2 := in.WithBudget(7)
	if in.Budget() != 3 || in2.Budget() != 7 {
		t.Fatal("WithBudget broken")
	}
	if in2.NumQueries() != in.NumQueries() {
		t.Fatal("WithBudget must preserve queries")
	}
}

func TestCoverageMonotoneUnderAdd(t *testing.T) {
	// Property: adding a classifier never uncovers a covered query.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, 6, 8, 3)
		s := NewSolution(in)
		covered := make(map[string]bool)
		cls := in.Classifiers()
		for step := 0; step < len(cls); step++ {
			c := cls[rng.Intn(len(cls))]
			s.Add(c.Props)
			for _, q := range in.Queries() {
				k := q.Props.Key()
				now := s.Covers(q.Props)
				if covered[k] && !now {
					t.Fatalf("query %v became uncovered after adding %v", q.Props, c.Props)
				}
				covered[k] = now
			}
		}
		// Full CL must cover everything.
		for _, q := range in.Queries() {
			s2 := NewSolution(in)
			for _, c := range cls {
				s2.Add(c.Props)
			}
			if !s2.Covers(q.Props) {
				t.Fatalf("full CL fails to cover %v", q.Props)
			}
		}
	}
}

func randomInstance(rng *rand.Rand, nProps, nQueries, maxLen int) *Instance {
	b := NewBuilder()
	u := b.Universe()
	names := make([]string, nProps)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	for i := 0; i < nQueries; i++ {
		ln := 1 + rng.Intn(maxLen)
		ids := make([]propset.ID, ln)
		for j := range ids {
			ids[j] = u.Intern(names[rng.Intn(nProps)])
		}
		b.AddQuerySet(propset.New(ids...), 1+float64(rng.Intn(10)))
	}
	b.SetDefaultCost(func(s propset.Set) float64 { return 1 + float64(rng.Intn(5)) })
	return b.MustInstance(10)
}

func BenchmarkCoverageCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := randomInstance(rng, 20, 100, 4)
	s := NewSolution(in)
	for _, c := range in.Classifiers() {
		if rng.Intn(2) == 0 {
			s.Add(c.Props)
		}
	}
	qs := in.Queries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Covers(qs[i%len(qs)].Props)
	}
}

// randomTableInstance draws queries of length 1–6 over 9 properties,
// pricing some classifiers explicitly (+Inf, zero or positive) and the
// rest through a default cost.
func randomTableInstance(rng *rand.Rand) *Instance {
	b := NewBuilder()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	for q := 0; q < 4+rng.Intn(10); q++ {
		var props []string
		for n := 1 + rng.Intn(6); len(props) < n; {
			props = append(props, names[rng.Intn(len(names))])
		}
		b.AddQuery(float64(1+rng.Intn(5)), props...)
	}
	for k := 0; k < 6; k++ {
		x, y := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		b.SetCost([]float64{math.Inf(1), 0, 2.5}[k%3], x, y)
	}
	b.SetDefaultCost(func(s propset.Set) float64 { return float64(1 + s.Len()%3) })
	return b.MustInstance(10)
}

func TestClassifierOrderMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		in := randomTableInstance(rng)
		want := append([]Classifier(nil), in.Classifiers()...)
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		sort.Slice(want, func(i, j int) bool {
			if want[i].Props.Len() != want[j].Props.Len() {
				return want[i].Props.Len() < want[j].Props.Len()
			}
			return want[i].Props.Key() < want[j].Props.Key()
		})
		sol := NewSolution(in)
		for i := len(want) - 1; i >= 0; i-- {
			sol.Add(want[i].Props)
		}
		for i, c := range in.Classifiers() {
			if !c.Props.Equal(want[i].Props) {
				t.Fatalf("trial %d: classifier %d is %v, (length, key) order has %v", trial, i, c.Props, want[i].Props)
			}
			if got := sol.Classifiers()[i].Props; !got.Equal(want[i].Props) {
				t.Fatalf("trial %d: solution classifier %d is %v, (length, key) order has %v", trial, i, got, want[i].Props)
			}
		}
	}
}

func TestSubsetTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		in := randomTableInstance(rng)
		for qi, q := range in.Queries() {
			table := in.SubsetTable(qi)
			if len(table) != 1<<q.Length()-1 {
				t.Fatalf("query %v: table has %d entries, want %d", q.Props, len(table), 1<<q.Length()-1)
			}
			m := 0
			q.Props.Subsets(func(sub propset.Set) {
				m++
				var picked propset.Set
				for i, p := range q.Props {
					if m>>i&1 == 1 {
						picked = append(picked, p)
					}
				}
				if !picked.Equal(sub) {
					t.Fatalf("query %v: subset %d is %v, mask %d picks %v", q.Props, m, sub, m, picked)
				}
				ci, ok := in.ClassifierIndex(sub)
				if !ok {
					ci = -1
				}
				if int(table[m-1]) != ci {
					t.Fatalf("query %v mask %d (%v): table says %d, index lookup %d", q.Props, m, sub, table[m-1], ci)
				}
				if (ci < 0) != math.IsInf(in.Cost(sub), 1) {
					t.Fatalf("query %v mask %d (%v): table %d but cost %v", q.Props, m, sub, ci, in.Cost(sub))
				}
			})
		}
	}
}

// randomReferenceBuilder draws a builder for the reference comparison:
// queries of length 1–6 (some repeated, so utilities accumulate), over a
// universe that is sometimes shared and already holds unused names,
// classifiers priced explicitly at zero, +Inf or a positive cost, the
// rest at a default that is sometimes nil (uniform) and sometimes a
// function; a few trials carry a negative or NaN price or utility.
func randomReferenceBuilder(rng *rand.Rand, u *propset.Universe) *Builder {
	b := NewBuilder()
	if u != nil {
		b = NewBuilderWithUniverse(u)
	}
	names := make([]string, 3+rng.Intn(10))
	for i := range names {
		names[i] = fmt.Sprintf("p%d", rng.Intn(30))
	}
	draw := func(n int) []string {
		props := make([]string, n)
		for i := range props {
			props[i] = names[rng.Intn(len(names))]
		}
		return props
	}
	var queries [][]string
	for n := rng.Intn(25); n > 0; n-- {
		props := draw(1 + rng.Intn(6))
		if len(queries) > 0 && rng.Intn(8) == 0 {
			props = queries[rng.Intn(len(queries))]
		}
		queries = append(queries, props)
		utility := float64(rng.Intn(20))
		if rng.Intn(60) == 0 {
			utility = -1
		}
		b.AddQuery(utility, props...)
	}
	for n := rng.Intn(20); n > 0; n-- {
		cost := []float64{0, math.Inf(1), 1.5, 3, 7.25}[rng.Intn(5)]
		switch rng.Intn(80) {
		case 0:
			cost = -2
		case 1:
			cost = math.NaN()
		}
		b.SetCost(cost, draw(1+rng.Intn(3))...)
	}
	switch rng.Intn(3) {
	case 0:
		bad := rng.Intn(20) == 0
		b.SetDefaultCost(func(s propset.Set) float64 {
			h := uint64(0)
			for _, id := range s {
				h = h*31 + uint64(id) + 1
			}
			if h%17 == 0 {
				return math.Inf(1)
			}
			if bad && h%5 == 0 {
				return -1
			}
			return float64(h % 9)
		})
	case 1:
		b.SetDefaultCost(func(s propset.Set) float64 { return 0.5 * float64(s.Len()) })
	}
	return b
}

// sameInstance fails unless got and want describe the same instance
// down to classifier order, subset tables and every lookup.
func sameInstance(t *testing.T, trial int, got *Instance, want *reference) {
	t.Helper()
	if got.universe != want.universe || math.Float64bits(got.budget) != math.Float64bits(want.budget) || got.maxLen != want.maxLen {
		t.Fatalf("trial %d: universe, budget or l differ", trial)
	}
	if len(got.queries) != len(want.queries) {
		t.Fatalf("trial %d: %d queries, reference %d", trial, len(got.queries), len(want.queries))
	}
	for i, q := range got.queries {
		if !q.Props.Equal(want.queries[i].Props) || math.Float64bits(q.Utility) != math.Float64bits(want.queries[i].Utility) {
			t.Fatalf("trial %d: query %d is %v, reference %v", trial, i, q, want.queries[i])
		}
	}
	if len(got.classifiers) != len(want.classifiers) {
		t.Fatalf("trial %d: %d classifiers, reference %d", trial, len(got.classifiers), len(want.classifiers))
	}
	for i, c := range got.classifiers {
		if !c.Props.Equal(want.classifiers[i].Props) || math.Float64bits(c.Cost) != math.Float64bits(want.classifiers[i].Cost) {
			t.Fatalf("trial %d: classifier %d is %v, reference %v", trial, i, c, want.classifiers[i])
		}
	}
	if !slices.Equal(got.subsets, want.subsets) || !slices.Equal(got.subsetOff, want.subsetOff) {
		t.Fatalf("trial %d: subset tables differ", trial)
	}
	var probes []propset.Set
	for _, q := range got.queries {
		q.Props.Subsets(func(sub propset.Set) { probes = append(probes, sub) })
	}
	for id := 0; id < got.universe.Size(); id++ {
		probes = append(probes, propset.New(propset.ID(id)), propset.New(0, propset.ID(id)))
	}
	for _, p := range probes {
		gi, gok := got.ClassifierIndex(p)
		wi, wok := want.ClassifierIndex(p)
		if gi != wi || gok != wok {
			t.Fatalf("trial %d: ClassifierIndex(%v) = %d %v, reference %d %v", trial, p, gi, gok, wi, wok)
		}
		if gc, wc := got.Cost(p), want.Cost(p); math.Float64bits(gc) != math.Float64bits(wc) {
			t.Fatalf("trial %d: Cost(%v) = %v, reference %v", trial, p, gc, wc)
		}
	}
}

// Builder.Instance enumerates into scratch; the string-keyed reference
// must agree with it on every input, errors included.
func TestInstanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shared := propset.NewUniverse()
	for i := 0; i < 12; i++ {
		shared.Intern(fmt.Sprintf("p%d", 29-i))
	}
	errs := 0
	for trial := 0; trial < 600; trial++ {
		var u *propset.Universe
		if trial%2 == 0 {
			u = shared
		}
		b := randomReferenceBuilder(rng, u)
		budget := float64(rng.Intn(30))
		switch rng.Intn(40) {
		case 0:
			budget = -1
		case 1:
			budget = math.NaN()
		}
		got, gerr := b.Instance(budget)
		want, werr := referenceInstance(b, budget)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if gerr != nil {
			errs++
			continue
		}
		sameInstance(t, trial, got, want)
	}
	if errs == 0 || errs > 300 {
		t.Fatalf("%d of 600 trials were rejected; the generator should mix both", errs)
	}
}

// Wide universes and long classifiers leave the packed sort keys of
// Builder.Instance and the fingerprints too few fields to order every
// set; the tied sets must still come out in reference order.
func TestPackedOrderTies(t *testing.T) {
	u := propset.NewUniverse()
	for i := 0; i < 1<<16; i++ { // 17-bit IDs: three ID fields per key
		u.Intern(fmt.Sprintf("w%05d", i))
	}
	rng := rand.New(rand.NewSource(5))
	b := NewBuilderWithUniverse(u)
	for i := 0; i < 600; i++ {
		// Queries share their three leading names and differ after.
		props := []string{"w00001", "w00002", "w00003"}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			props = append(props, fmt.Sprintf("w%05d", 4+rng.Intn(1<<16-4)))
		}
		b.AddQuery(float64(1+rng.Intn(9)), props...)
	}
	b.SetDefaultCost(func(s propset.Set) float64 { return float64(s.Len()) })
	got, err := b.Instance(50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceInstance(b, 50)
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, 0, got, want)
	if got.Fingerprint() != referenceFingerprint(got) || got.Fingerprint2() != referenceFingerprint2(got) {
		t.Fatal("fingerprints differ from the reference")
	}
}

// An instance owns the prices it answers with: prices set on its
// builder afterwards, for classifiers and for sets no query contains,
// leave it as it was.
func TestInstanceKeepsItsPrices(t *testing.T) {
	b := NewBuilder()
	b.AddQuery(1, "a", "b")
	b.SetCost(2, "a")
	b.SetCost(3, "z") // no query contains z
	in := b.MustInstance(10)
	b.SetCost(7, "a").SetCost(9, "z").SetCost(4, "b").SetCost(5, "a", "z")
	u := in.Universe()
	for _, c := range []struct {
		props []string
		want  float64
	}{
		{[]string{"a"}, 2},
		{[]string{"z"}, 3},
		{[]string{"b"}, 1},
		{[]string{"a", "z"}, math.Inf(1)},
	} {
		if got := in.Cost(u.SetOf(c.props...)); got != c.want {
			t.Errorf("Cost(%v) = %v after later SetCost calls, want %v", c.props, got, c.want)
		}
	}
	if i, ok := in.ClassifierIndex(u.SetOf("a")); !ok || in.Classifiers()[i].Cost != 2 {
		t.Errorf("classifier {a} = %v, want cost 2", in.Classifiers())
	}
}
