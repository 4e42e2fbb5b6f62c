package mc3

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/propset"
)

// randomInput draws an MC3 input: up to 13 queries of length 1 to maxLen
// over a small universe, some repeated and some empty. Every subset of a
// query is priced once and then always alike: 0, a fraction k/30, a small
// integer (so cost-per-slot scores tie) or +Inf, the share of +Inf drawn
// per input. A query whose finite-cost subsets miss one of its properties
// is uncoverable.
func randomInput(rng *rand.Rand, maxLen int) Input {
	nProps := maxLen + rng.Intn(6)
	var queries []propset.Set
	for i := rng.Intn(14); i > 0; i-- {
		switch {
		case len(queries) > 0 && rng.Intn(6) == 0:
			queries = append(queries, queries[rng.Intn(len(queries))])
		case rng.Intn(12) == 0:
			queries = append(queries, nil)
		default:
			ids := make([]propset.ID, 1+rng.Intn(maxLen))
			for j, p := range rng.Perm(nProps)[:len(ids)] {
				ids[j] = propset.ID(p)
			}
			queries = append(queries, propset.New(ids...))
		}
	}
	inf := rng.Intn(4)
	costs := map[string]float64{}
	for _, q := range queries {
		q.Subsets(func(sub propset.Set) {
			if _, ok := costs[sub.Key()]; ok {
				return
			}
			var c float64
			switch r := rng.Intn(12); {
			case r == 0:
				c = 0
			case r <= inf:
				c = math.Inf(1)
			case r <= 7:
				c = float64(1+rng.Intn(97)) / 30
			default:
				c = float64(1 + rng.Intn(4))
			}
			costs[sub.Key()] = c
		})
	}
	return Input{Queries: queries, Cost: func(s propset.Set) float64 { return costs[s.Key()] }}
}

// instanceFor builds the instance of inp: its non-empty queries, each
// of utility 1, and every subset of every query priced by inp.Cost. It
// returns the instance and all its query indices, or nil when inp has no
// non-empty query.
func instanceFor(inp Input) (*model.Instance, []int) {
	b := model.NewBuilder()
	for _, q := range inp.Queries {
		b.AddQuerySet(q, 1)
		q.Subsets(func(sub propset.Set) { b.SetCostSet(sub, inp.Cost(sub)) })
	}
	in, err := b.Instance(0)
	if err != nil {
		return nil, nil
	}
	qs := make([]int, in.NumQueries())
	for i := range qs {
		qs[i] = i
	}
	return in, qs
}

// solveTables runs the greedy on the subset tables of inp's instance.
func solveTables(inp Input) Output {
	in, qs := instanceFor(inp)
	if in == nil {
		return Output{}
	}
	return newTableCover(in, qs).solve()
}

// checkOracle requires the greedy, its tables filled both from strings
// (newGreedyCover) and from the instance's subset tables (newTableCover),
// to return the string-keyed oracle's classifiers in the same order, the
// same uncovered queries and the same cost, bit for bit; the table fill
// must also name each classifier by its index in the instance.
func checkOracle(t *testing.T, inp Input) {
	t.Helper()
	want := oracleSolveGreedy(inp)
	for _, fill := range []string{"strings", "tables"} {
		var got Output
		if fill == "strings" {
			got = solveGreedyInput(inp)
		} else {
			in, qs := instanceFor(inp)
			if in == nil {
				continue
			}
			got = newTableCover(in, qs).solve()
			if len(got.Indices) != len(got.Classifiers) {
				t.Fatalf("queries %v: %d indices for %d classifiers", inp.Queries, len(got.Indices), len(got.Classifiers))
			}
			for k, ci := range got.Indices {
				if !in.Classifiers()[ci].Props.Equal(got.Classifiers[k]) {
					t.Fatalf("queries %v: index %d names %v, not %v", inp.Queries, ci, in.Classifiers()[ci].Props, got.Classifiers[k])
				}
			}
		}
		if !slices.EqualFunc(got.Classifiers, want.Classifiers, propset.Set.Equal) ||
			!slices.EqualFunc(got.Uncovered, want.Uncovered, propset.Set.Equal) ||
			math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("queries %v, %s fill:\n greedy %v uncovered %v cost %v\n oracle %v uncovered %v cost %v",
				inp.Queries, fill, got.Classifiers, got.Uncovered, got.Cost,
				want.Classifiers, want.Uncovered, want.Cost)
		}
	}
}

func TestSolveGreedyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 360; trial++ {
		checkOracle(t, randomInput(rng, 1+trial%6))
	}
}

func FuzzMC3(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, maxLen uint8) {
		checkOracle(t, randomInput(rand.New(rand.NewSource(seed)), 1+int(maxLen)%6))
	})
}

// TestCostBitIdentical runs each solver 40 times on one input whose
// fractional prices make the float total depend on summation order, and
// requires the same Cost bits every time.
func TestCostBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		maxLen int
		solve  func(Input) Output
	}{
		{"greedy", 3, solveTables},
		{"exact", 2, SolveExactL2},
	} {
		rng := rand.New(rand.NewSource(5))
		queries := make([]propset.Set, 60)
		for i := range queries {
			ids := make([]propset.ID, 1+rng.Intn(tc.maxLen))
			for j := range ids {
				ids[j] = propset.ID(rng.Intn(12))
			}
			queries[i] = propset.New(ids...)
		}
		costs := map[string]float64{}
		inp := Input{Queries: queries, Cost: func(s propset.Set) float64 {
			c, ok := costs[s.Key()]
			if !ok {
				c = 0.1 * float64(1+rng.Intn(97)) / 3
				costs[s.Key()] = c
			}
			return c
		}}
		for _, q := range queries {
			q.Subsets(func(sub propset.Set) { inp.Cost(sub) })
		}
		first := tc.solve(inp).Cost
		for run := 1; run < 40; run++ {
			if c := tc.solve(inp).Cost; math.Float64bits(c) != math.Float64bits(first) {
				t.Fatalf("%s: run %d cost %v, run 0 cost %v", tc.name, run, c, first)
			}
		}
	}
}
