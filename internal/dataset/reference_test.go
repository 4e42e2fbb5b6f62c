package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/propset"
)

// referenceFromFormat is FromFormat as it was before validation moved
// onto interned IDs: a copied, sorted, joined key per query, then the
// builder's name-based AddQuery and SetCost. It stays as the oracle of
// TestFromFormatMatchesReference.
func referenceFromFormat(ff FileFormat) (*model.Instance, error) {
	seenQueries := make(map[string]int, len(ff.Queries))
	for i, q := range ff.Queries {
		if math.IsNaN(q.Utility) || math.IsInf(q.Utility, 0) {
			return nil, fmt.Errorf("dataset: query %d (%v): utility %v is not finite", i, q.Props, q.Utility)
		}
		props := append([]string(nil), q.Props...)
		sort.Strings(props)
		for j := 1; j < len(props); j++ {
			if props[j] == props[j-1] {
				return nil, fmt.Errorf("dataset: query %d (%v): duplicate property %q", i, q.Props, props[j])
			}
		}
		key := strings.Join(props, "\x00")
		if first, dup := seenQueries[key]; dup {
			return nil, fmt.Errorf("dataset: query %d (%v): duplicate of query %d", i, q.Props, first)
		}
		seenQueries[key] = i
	}
	for i, c := range ff.Costs {
		if c.Inf {
			continue
		}
		if math.IsNaN(c.Cost) {
			return nil, fmt.Errorf("dataset: cost %d (%v): cost is NaN", i, c.Props)
		}
		if c.Cost < 0 {
			return nil, fmt.Errorf("dataset: cost %d (%v): cost %v is negative", i, c.Props, c.Cost)
		}
	}
	b := model.NewBuilder()
	for _, q := range ff.Queries {
		b.AddQuery(q.Utility, q.Props...)
	}
	for _, c := range ff.Costs {
		cost := c.Cost
		if c.Inf {
			cost = math.Inf(1)
		}
		b.SetCost(cost, c.Props...)
	}
	if d := ff.Default; d != nil {
		b.SetDefaultCost(func(s propset.Set) float64 {
			return d.Cost + d.PerProp*float64(s.Len())
		})
	}
	return b.Instance(ff.Budget)
}

// randomFileFormat draws an instance file with queries of length 1–6
// and zero, +Inf, positive and default-priced classifiers. Some files
// carry one of every rejection FromFormat or the builder makes: a
// non-finite utility, a repeated property, a repeated query, a NaN or
// negative cost, a negative utility, a bad budget, no queries.
func randomFileFormat(rng *rand.Rand) FileFormat {
	pool := make([]string, 2+rng.Intn(14))
	for i := range pool {
		pool[i] = []string{"a", "b", "ab", "é", "日本", "p" + fmt.Sprint(i), ""}[rng.Intn(7)] + fmt.Sprint(i)
	}
	distinct := func(n int) []string {
		perm := rng.Perm(len(pool))
		props := make([]string, min(n, len(pool)))
		for i := range props {
			props[i] = pool[perm[i]]
		}
		return props
	}
	ff := FileFormat{Budget: float64(rng.Intn(40))}
	seen := map[string]bool{}
	for n := rng.Intn(30); n > 0; n-- {
		props := distinct(1 + rng.Intn(6))
		key := slices.Clone(props)
		sort.Strings(key)
		if seen[strings.Join(key, "\x00")] {
			continue
		}
		seen[strings.Join(key, "\x00")] = true
		ff.Queries = append(ff.Queries, FileQuery{Props: props, Utility: float64(rng.Intn(30))})
	}
	for n := rng.Intn(25); n > 0 && len(ff.Queries) > 0; n-- {
		q := ff.Queries[rng.Intn(len(ff.Queries))].Props
		var sub []string
		for _, p := range q {
			if rng.Intn(2) == 0 {
				sub = append(sub, p)
			}
		}
		c := FileCost{Props: sub, Cost: []float64{0, 1, 2.5, 9}[rng.Intn(4)]}
		if rng.Intn(6) == 0 {
			c.Inf = true
		}
		if rng.Intn(10) == 0 && len(sub) > 0 {
			c.Props = append(c.Props, sub[0]) // repeated inside a cost row: deduplicated
		}
		ff.Costs = append(ff.Costs, c)
	}
	if rng.Intn(2) == 0 {
		ff.Default = &FileDefault{Cost: float64(rng.Intn(3)), PerProp: 0.5}
	}
	if len(ff.Queries) > 0 && rng.Intn(3) == 0 {
		qi := rng.Intn(len(ff.Queries))
		q := &ff.Queries[qi]
		switch rng.Intn(9) {
		case 0:
			q.Utility = math.NaN()
		case 1:
			q.Utility = math.Inf(-1)
		case 2:
			q.Props = append(q.Props, q.Props[0])
		case 3:
			dup := append([]string(nil), q.Props...)
			rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
			ff.Queries = append(ff.Queries, FileQuery{Props: dup, Utility: 1})
		case 4:
			q.Utility = -2
		case 5:
			ff.Budget = []float64{-1, math.NaN()}[rng.Intn(2)]
		case 6:
			ff.Queries = append(ff.Queries, FileQuery{Utility: 1}, FileQuery{Props: []string{}, Utility: 2})
		case 7:
			if len(ff.Costs) > 0 {
				ff.Costs[rng.Intn(len(ff.Costs))].Cost = []float64{-1, math.NaN()}[rng.Intn(2)]
			}
		case 8:
			ff.Default = &FileDefault{Cost: -3}
		}
	}
	return ff
}

// cloneFormat deep-copies ff, so a test can tell whether it was mutated.
func cloneFormat(ff FileFormat) FileFormat {
	out := ff
	out.Queries = nil
	for _, q := range ff.Queries {
		q.Props = slices.Clone(q.Props)
		out.Queries = append(out.Queries, q)
	}
	out.Costs = nil
	for _, c := range ff.Costs {
		c.Props = slices.Clone(c.Props)
		out.Costs = append(out.Costs, c)
	}
	if ff.Default != nil {
		d := *ff.Default
		out.Default = &d
	}
	return out
}

// sameFormat reports whether a and b hold the same rows in the same
// order, comparing floats by their bits so NaN equals itself.
func sameFormat(a, b FileFormat) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Budget, b.Budget) || len(a.Queries) != len(b.Queries) || len(a.Costs) != len(b.Costs) ||
		(a.Default == nil) != (b.Default == nil) {
		return false
	}
	for i, q := range a.Queries {
		if !reflect.DeepEqual(q.Props, b.Queries[i].Props) || !same(q.Utility, b.Queries[i].Utility) {
			return false
		}
	}
	for i, c := range a.Costs {
		if !reflect.DeepEqual(c.Props, b.Costs[i].Props) || !same(c.Cost, b.Costs[i].Cost) || c.Inf != b.Costs[i].Inf {
			return false
		}
	}
	return a.Default == nil || *a.Default == *b.Default
}

// sameBuilt fails unless got and want intern the same property IDs and
// hold the same queries, classifier order, subset tables and lookups.
func sameBuilt(t *testing.T, trial int, got, want *model.Instance) {
	t.Helper()
	gu, wu := got.Universe(), want.Universe()
	if gu.Size() != wu.Size() {
		t.Fatalf("trial %d: %d properties, reference %d", trial, gu.Size(), wu.Size())
	}
	for id := 0; id < gu.Size(); id++ {
		if gu.Name(propset.ID(id)) != wu.Name(propset.ID(id)) {
			t.Fatalf("trial %d: property %d is %q, reference %q", trial, id, gu.Name(propset.ID(id)), wu.Name(propset.ID(id)))
		}
	}
	if math.Float64bits(got.Budget()) != math.Float64bits(want.Budget()) {
		t.Fatalf("trial %d: budget %v, reference %v", trial, got.Budget(), want.Budget())
	}
	if !reflect.DeepEqual(got.Queries(), want.Queries()) {
		t.Fatalf("trial %d: queries %v, reference %v", trial, got.Queries(), want.Queries())
	}
	if !reflect.DeepEqual(got.Classifiers(), want.Classifiers()) {
		t.Fatalf("trial %d: classifiers %v, reference %v", trial, got.Classifiers(), want.Classifiers())
	}
	var probes []propset.Set
	for qi, q := range got.Queries() {
		if !reflect.DeepEqual(got.SubsetTable(qi), want.SubsetTable(qi)) {
			t.Fatalf("trial %d: subset table %d differs", trial, qi)
		}
		q.Props.Subsets(func(sub propset.Set) { probes = append(probes, sub) })
	}
	for id := 0; id < gu.Size(); id++ {
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

// FromFormat validates on interned IDs and reports errors through
// formatError; the name-based reference must agree with it on every
// file, rejections included, and neither may touch its input.
func TestFromFormatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rejected := 0
	for trial := 0; trial < 1500; trial++ {
		ff := randomFileFormat(rng)
		before := cloneFormat(ff)
		got, gerr := FromFormat(ff)
		if !sameFormat(ff, before) {
			t.Fatalf("trial %d: FromFormat changed its input", trial)
		}
		want, werr := referenceFromFormat(ff)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if gerr != nil {
			rejected++
			continue
		}
		sameBuilt(t, trial, got, want)
	}
	if rejected < 100 || rejected > 1000 {
		t.Fatalf("%d of 1500 files rejected; the generator should mix both", rejected)
	}
}

// The reference joined sorted names with NUL bytes, so a query whose
// one name holds a NUL collided with the query of its parts; keyed on
// interned IDs, they are the two different queries they are.
func TestFromFormatNamesWithNUL(t *testing.T) {
	ff := FileFormat{Budget: 1, Queries: []FileQuery{
		{Props: []string{"a\x00b"}, Utility: 1},
		{Props: []string{"a", "b"}, Utility: 2},
	}}
	if _, err := referenceFromFormat(ff); err == nil {
		t.Fatal("the reference no longer confuses the two queries; drop this test")
	}
	in, err := FromFormat(ff)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumQueries() != 2 {
		t.Fatalf("%d queries, want 2", in.NumQueries())
	}
}
