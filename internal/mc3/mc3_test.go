package mc3

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/propset"
)

// costMap builds a Cost oracle from explicit entries with a default.
func costMap(def float64, entries map[string]float64) func(propset.Set) float64 {
	return func(s propset.Set) float64 {
		if c, ok := entries[s.Key()]; ok {
			return c
		}
		return def
	}
}

// bruteMC3 finds the true minimum cost cover by enumerating classifier
// subsets. Queries that cannot be covered are skipped (matching Solve).
func bruteMC3(inp Input) float64 {
	// Enumerate candidate classifiers.
	seen := map[string]propset.Set{}
	for _, q := range inp.Queries {
		q.Subsets(func(sub propset.Set) {
			if !math.IsInf(inp.Cost(sub), 1) {
				seen[sub.Key()] = sub.Clone()
			}
		})
	}
	var cands []propset.Set
	for _, c := range seen {
		cands = append(cands, c)
	}
	if len(cands) > 20 {
		panic("bruteMC3 too large")
	}
	coverable := func(q propset.Set, have map[string]bool) bool {
		var acc propset.Set
		q.Subsets(func(sub propset.Set) {
			if have[sub.Key()] {
				acc = acc.Union(sub)
			}
		})
		return acc.Equal(q)
	}
	all := map[string]bool{}
	for _, c := range cands {
		all[c.Key()] = true
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(cands); mask++ {
		have := map[string]bool{}
		var cost float64
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				have[c.Key()] = true
				cost += inp.Cost(c)
			}
		}
		ok := true
		for _, q := range inp.Queries {
			if !coverable(q, all) {
				continue // uncoverable, excluded from guarantee
			}
			if !coverable(q, have) {
				ok = false
				break
			}
		}
		if ok && cost < best {
			best = cost
		}
	}
	return best
}

func TestExactSimpleChain(t *testing.T) {
	// Queries x, xy; buying X is forced; then covering xy needs Y (cost 2)
	// or XY (cost 1): XY wins.
	u := propset.NewUniverse()
	x := u.SetOf("x")
	xy := u.SetOf("x", "y")
	inp := Input{
		Queries: []propset.Set{x, xy},
		Cost: costMap(0, map[string]float64{
			x.Key():            3,
			u.SetOf("y").Key(): 2,
			xy.Key():           1,
		}),
	}
	out := SolveExactL2(inp)
	if out.Cost != 4 {
		t.Fatalf("Cost = %v, want 4 (X + XY)", out.Cost)
	}
	for _, q := range inp.Queries {
		if !out.Covers(q) {
			t.Fatalf("query %v not covered", q)
		}
	}
}

func TestExactSharedEndpointsBeatPairs(t *testing.T) {
	// Star: queries xy, xz, xw. Singletons cost 1, pairs cost 1.9:
	// buying {X,Y,Z,W} (cost 4) beats three pairs (5.7).
	u := propset.NewUniverse()
	queries := []propset.Set{u.SetOf("x", "y"), u.SetOf("x", "z"), u.SetOf("x", "w")}
	inp := Input{
		Queries: queries,
		Cost: func(s propset.Set) float64 {
			if s.Len() == 1 {
				return 1
			}
			return 1.9
		},
	}
	out := SolveExactL2(inp)
	if math.Abs(out.Cost-4) > 1e-9 {
		t.Fatalf("Cost = %v, want 4", out.Cost)
	}
}

func TestExactPairsBeatSingletons(t *testing.T) {
	// Disjoint queries: xy and zw. Pairs cost 1, singletons cost 10.
	u := propset.NewUniverse()
	inp := Input{
		Queries: []propset.Set{u.SetOf("x", "y"), u.SetOf("z", "w")},
		Cost: func(s propset.Set) float64 {
			if s.Len() == 2 {
				return 1
			}
			return 10
		},
	}
	out := SolveExactL2(inp)
	if out.Cost != 2 {
		t.Fatalf("Cost = %v, want 2", out.Cost)
	}
}

func TestExactInfinitePairForcesSingletons(t *testing.T) {
	u := propset.NewUniverse()
	xy := u.SetOf("x", "y")
	inp := Input{
		Queries: []propset.Set{xy},
		Cost: costMap(1, map[string]float64{
			xy.Key(): math.Inf(1),
		}),
	}
	out := SolveExactL2(inp)
	if out.Cost != 2 || len(out.Classifiers) != 2 {
		t.Fatalf("want both singletons at cost 2, got %+v", out)
	}
}

func TestExactUncoverableQuery(t *testing.T) {
	u := propset.NewUniverse()
	xy := u.SetOf("x", "y")
	inp := Input{
		Queries: []propset.Set{xy},
		Cost: costMap(math.Inf(1), map[string]float64{
			u.SetOf("x").Key(): 1,
		}),
	}
	out := SolveExactL2(inp)
	if len(out.Uncovered) != 1 {
		t.Fatalf("want 1 uncoverable query, got %+v", out)
	}
	if out.Cost != 0 {
		t.Fatalf("nothing should be bought, cost %v", out.Cost)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 200; trial++ {
		u := propset.NewUniverse()
		var queries []propset.Set
		nq := 1 + rng.Intn(4)
		for i := 0; i < nq; i++ {
			if rng.Intn(3) == 0 {
				queries = append(queries, u.SetOf(names[rng.Intn(len(names))]))
			} else {
				a, b := rng.Intn(len(names)), rng.Intn(len(names))
				if a == b {
					b = (b + 1) % len(names)
				}
				queries = append(queries, u.SetOf(names[a], names[b]))
			}
		}
		costs := map[string]float64{}
		inp := Input{
			Queries: queries,
			Cost: func(s propset.Set) float64 {
				k := s.Key()
				if c, ok := costs[k]; ok {
					return c
				}
				var c float64
				switch rng.Intn(6) {
				case 0:
					c = 0
				case 5:
					c = math.Inf(1)
				default:
					c = float64(1 + rng.Intn(9))
				}
				costs[k] = c
				return c
			},
		}
		// Materialize all costs first (oracle must be deterministic).
		for _, q := range queries {
			q.Subsets(func(sub propset.Set) { inp.Cost(sub) })
		}
		got := SolveExactL2(inp)
		want := bruteMC3(inp)
		if math.IsInf(want, 1) {
			continue
		}
		if math.Abs(got.Cost-want) > 1e-9 {
			t.Fatalf("trial %d: exact cost %v != brute %v (queries %v)",
				trial, got.Cost, want, queries)
		}
		for _, q := range queries {
			unc := false
			for _, uq := range got.Uncovered {
				if uq.Equal(q) {
					unc = true
				}
			}
			if !unc && !got.Covers(q) {
				t.Fatalf("trial %d: query %v not covered", trial, q)
			}
		}
	}
}

func TestGreedyCoversLongQueries(t *testing.T) {
	u := propset.NewUniverse()
	queries := []propset.Set{
		u.SetOf("a", "b", "c"),
		u.SetOf("a", "b", "d"),
		u.SetOf("c", "d"),
		u.SetOf("a"),
	}
	inp := Input{Queries: queries, Cost: func(s propset.Set) float64 { return float64(s.Len()) }}
	out := Solve(instanceFor(inp))
	for _, q := range queries {
		if !out.Covers(q) {
			t.Fatalf("greedy left %v uncovered", q)
		}
	}
	if len(out.Uncovered) != 0 {
		t.Fatalf("unexpected uncovered: %v", out.Uncovered)
	}
}

func TestGreedyNotTerribleVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	names := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 100; trial++ {
		u := propset.NewUniverse()
		var queries []propset.Set
		nq := 1 + rng.Intn(3)
		for i := 0; i < nq; i++ {
			ln := 1 + rng.Intn(3)
			ids := map[string]bool{}
			for len(ids) < ln {
				ids[names[rng.Intn(len(names))]] = true
			}
			var sel []string
			for s := range ids {
				sel = append(sel, s)
			}
			queries = append(queries, u.SetOf(sel...))
		}
		costs := map[string]float64{}
		inp := Input{
			Queries: queries,
			Cost: func(s propset.Set) float64 {
				k := s.Key()
				if c, ok := costs[k]; ok {
					return c
				}
				c := float64(1 + rng.Intn(9))
				costs[k] = c
				return c
			},
		}
		for _, q := range queries {
			q.Subsets(func(sub propset.Set) { inp.Cost(sub) })
		}
		got := solveTables(inp)
		want := bruteMC3(inp)
		if got.Cost < want-1e-9 {
			t.Fatalf("trial %d: greedy %v below optimum %v — coverage bug", trial, got.Cost, want)
		}
		if got.Cost > want*4+1e-9 {
			t.Errorf("trial %d: greedy %v > 4 × optimum %v", trial, got.Cost, want)
		}
		for _, q := range queries {
			if !got.Covers(q) {
				t.Fatalf("trial %d: %v uncovered", trial, q)
			}
		}
	}
}

func TestSolveDispatchesByLength(t *testing.T) {
	u := propset.NewUniverse()
	inp := Input{
		Queries: []propset.Set{u.SetOf("a", "b")},
		Cost:    func(s propset.Set) float64 { return 1 },
	}
	out := Solve(instanceFor(inp))
	if out.Cost != 1 {
		t.Fatalf("l=2 dispatch: cost %v, want 1 (exact picks AB)", out.Cost)
	}
}

func TestZeroCostClassifiersFree(t *testing.T) {
	u := propset.NewUniverse()
	xy := u.SetOf("x", "y")
	inp := Input{
		Queries: []propset.Set{xy},
		Cost:    costMap(5, map[string]float64{xy.Key(): 0}),
	}
	out := SolveExactL2(inp)
	if out.Cost != 0 {
		t.Fatalf("free pair classifier should win, cost %v", out.Cost)
	}
}

func TestDuplicateQueriesDeduped(t *testing.T) {
	u := propset.NewUniverse()
	q := u.SetOf("x", "y")
	inp := Input{
		Queries: []propset.Set{q, q, q},
		Cost:    func(s propset.Set) float64 { return 1 },
	}
	out := SolveExactL2(inp)
	if out.Cost != 1 {
		t.Fatalf("duplicates should not raise cost: %v", out.Cost)
	}
}

func BenchmarkExactL2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	u := propset.NewUniverse()
	var queries []propset.Set
	names := make([]string, 200)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	for i := 0; i < 500; i++ {
		a, b2 := rng.Intn(200), rng.Intn(200)
		if a == b2 {
			queries = append(queries, u.SetOf(names[a]))
		} else {
			queries = append(queries, u.SetOf(names[a], names[b2]))
		}
	}
	costs := map[string]float64{}
	inp := Input{Queries: queries, Cost: func(s propset.Set) float64 {
		k := s.Key()
		if c, ok := costs[k]; ok {
			return c
		}
		c := float64(1 + rng.Intn(20))
		costs[k] = c
		return c
	}}
	for _, q := range queries {
		q.Subsets(func(sub propset.Set) { inp.Cost(sub) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveExactL2(inp)
	}
}
