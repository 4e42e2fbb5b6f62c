package qk

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wgraph"
)

func randomQK(rng *rand.Rand, n int, p float64, maxCost int) *wgraph.Graph {
	g := wgraph.New(n)
	for v := 0; v < n; v++ {
		g.SetCost(v, float64(rng.Intn(maxCost+1)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, float64(1+rng.Intn(10)))
			}
		}
	}
	return g
}

func checkFeasible(t *testing.T, g *wgraph.Graph, res Result, budget float64) {
	t.Helper()
	var cost float64
	seen := map[int]bool{}
	for _, v := range res.Nodes {
		if seen[v] {
			t.Fatalf("node %d selected twice", v)
		}
		seen[v] = true
		cost += g.Cost(v)
	}
	if cost > budget+1e-6 {
		t.Fatalf("cost %v exceeds budget %v", cost, budget)
	}
	if math.Abs(cost-res.Cost) > 1e-6 {
		t.Fatalf("reported cost %v != recomputed %v", res.Cost, cost)
	}
	if w := g.InducedWeightOf(res.Nodes); math.Abs(w-res.Weight) > 1e-6 {
		t.Fatalf("reported weight %v != recomputed %v", res.Weight, w)
	}
}

func TestGreedyPairExample(t *testing.T) {
	// Example from Figure 2 of the paper (QK instance): nodes X, Y, Z with
	// costs 2, 1, 2; edges xy (utility 2) and yz (utility 1); budget 3.
	g := wgraph.New(3)
	g.SetCost(0, 2)    // X
	g.SetCost(1, 1)    // Y
	g.SetCost(2, 2)    // Z
	g.AddEdge(0, 1, 2) // xy
	g.AddEdge(1, 2, 1) // yz
	res := SolveHeuristic(g, 3, Options{})
	if res.Weight != 2 {
		t.Fatalf("Figure 2 QK optimum: weight %v, want 2 ({X,Y})", res.Weight)
	}
	checkFeasible(t, g, res, 3)
}

func TestZeroCostNodesAlwaysUsable(t *testing.T) {
	g := wgraph.New(3)
	g.SetCost(0, 0)
	g.SetCost(1, 0)
	g.SetCost(2, 100)
	g.AddEdge(0, 1, 7)
	res := SolveHeuristic(g, 1, Options{})
	if res.Weight != 7 {
		t.Fatalf("zero-cost pair: weight %v, want 7", res.Weight)
	}
	if res.Cost != 0 {
		t.Fatalf("zero-cost pair reported cost %v", res.Cost)
	}
}

func TestExpensivePair(t *testing.T) {
	// Two expensive nodes that exactly consume the budget carry the only
	// heavy edge.
	g := wgraph.New(4)
	g.SetCost(0, 5)
	g.SetCost(1, 5)
	g.SetCost(2, 1)
	g.SetCost(3, 1)
	g.AddEdge(0, 1, 100)
	g.AddEdge(2, 3, 1)
	res := SolveHeuristic(g, 10, Options{})
	if res.Weight != 100 {
		t.Fatalf("expensive pair: weight %v, want 100 (%v)", res.Weight, res.Nodes)
	}
	checkFeasible(t, g, res, 10)
}

func TestSingleExpensivePlusCheap(t *testing.T) {
	// One expensive hub node plus cheap neighbors beats anything else.
	g := wgraph.New(5)
	g.SetCost(0, 6) // hub, cost ≥ B/2
	for v := 1; v < 5; v++ {
		g.SetCost(v, 1)
		g.AddEdge(0, v, 10)
	}
	res := SolveHeuristic(g, 10, Options{})
	if res.Weight != 40 {
		t.Fatalf("hub solution: weight %v, want 40 (%v)", res.Weight, res.Nodes)
	}
	checkFeasible(t, g, res, 10)
}

func TestHeuristicFeasibleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(20)
		g := randomQK(rng, n, 0.3, 8)
		budget := float64(rng.Intn(30))
		res := SolveHeuristic(g, budget, Options{Seed: int64(trial + 1)})
		checkFeasible(t, g, res, budget)
	}
}

func TestHeuristicNearOptimalSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var totGot, totOpt float64
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		g := randomQK(rng, n, 0.4, 5)
		budget := float64(2 + rng.Intn(12))
		res := SolveHeuristic(g, budget, Options{Seed: int64(trial + 1)})
		opt := BruteForce(g, budget)
		if res.Weight > opt.Weight+1e-9 {
			t.Fatalf("trial %d: heuristic %v beats brute force %v (bug in one of them)",
				trial, res.Weight, opt.Weight)
		}
		if opt.Weight > 0 && res.Weight < 0.6*opt.Weight {
			t.Errorf("trial %d: heuristic %v < 0.6 × optimal %v (n=%d B=%v)",
				trial, res.Weight, opt.Weight, n, budget)
		}
		totGot += res.Weight
		totOpt += opt.Weight
	}
	// The paper reports the HkS heuristic typically reaching 65–80% of
	// optimal; our portfolio should average well above that floor on these
	// small instances.
	if totGot < 0.85*totOpt {
		t.Fatalf("average quality %.3f below 0.85", totGot/totOpt)
	}
}

func TestHeuristicDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomQK(rng, 30, 0.2, 6)
	a := SolveHeuristic(g, 20, Options{Seed: 5})
	b := SolveHeuristic(g, 20, Options{Seed: 5})
	if a.Weight != b.Weight || !slices.Equal(a.Nodes, b.Nodes) {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

// referenceGrow is greedyGrow without a heap: every step rescans all
// nodes, recomputes each gain from scratch, and takes the first node in
// the canonical order (score desc, node asc) among those that still fit.
// It is O(n²) per step and serves as the kernel's oracle.
func referenceGrow(g *wgraph.Graph, budget float64, start []int) []int {
	n := g.NumNodes()
	in := make([]bool, n)
	var cost float64
	var out []int
	for _, v := range start {
		if !in[v] {
			in[v] = true
			cost += g.Cost(v)
			out = append(out, v)
		}
	}
	for {
		best, bestScore := -1, 0.0
		for v := 0; v < n; v++ {
			if in[v] || g.Cost(v) > budget-cost+1e-9 {
				continue
			}
			var gain, boot float64
			g.Neighbors(v, func(u int, w float64, _ int) {
				if in[u] {
					gain += w
				}
				boot = math.Max(boot, w/4)
			})
			if gain == 0 {
				gain = boot
			}
			if gain <= 0 {
				continue
			}
			if sc := gain / math.Max(g.Cost(v), 1e-9); sc > bestScore {
				best, bestScore = v, sc
			}
		}
		if best < 0 {
			return out
		}
		in[best] = true
		cost += g.Cost(best)
		out = append(out, best)
	}
}

// tieQK is a random graph built to stress the greedy's tie, stale-entry
// and filter paths: small integer costs (zero included), integer weights
// (zero included) of which about a quarter are scaled up 8×, so a node's
// first real gain can fall below its bootstrap score, and about one node
// in eight isolated.
func tieQK(rng *rand.Rand) *wgraph.Graph {
	n := 1 + rng.Intn(40)
	g := wgraph.New(n)
	isolated := make([]bool, n)
	for v := 0; v < n; v++ {
		g.SetCost(v, float64(rng.Intn(7)))
		isolated[v] = rng.Intn(8) == 0
	}
	p := 0.05 + 0.4*rng.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !isolated[u] && !isolated[v] && rng.Float64() < p {
				w := float64(rng.Intn(5))
				if rng.Intn(4) == 0 {
					w *= 8
				}
				g.AddEdge(u, v, w)
			}
		}
	}
	return g
}

// TestGreedyGrowMatchesReference requires the heap kernel to select the
// same nodes in the same order as the heap-free oracle, on random graphs
// at budgets from 0 to the total cost, with and without a start set.
func TestGreedyGrowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		g := tieQK(rng)
		n := g.NumNodes()
		total := 0.0
		for v := 0; v < n; v++ {
			total += g.Cost(v)
		}
		budgets := []float64{0, total, float64(rng.Intn(int(total) + 1)), rng.Float64() * total}
		var start []int
		for i := rng.Intn(4); i > 0; i-- {
			start = append(start, rng.Intn(n)) // repeats allowed
		}
		for _, b := range budgets {
			for _, st := range [][]int{nil, start} {
				got := greedyGrow(nil, g, b, st)
				want := referenceGrow(g, b, st)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d (n=%d, m=%d) budget %v start %v:\n kernel %v\n oracle %v",
						trial, n, g.NumEdges(), b, st, got, want)
				}
			}
		}
	}
}

func TestHeuristicFractionalCosts(t *testing.T) {
	g := wgraph.New(4)
	g.SetCost(0, 1.5)
	g.SetCost(1, 2.25)
	g.SetCost(2, 0.75)
	g.SetCost(3, 3.1)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 4)
	g.AddEdge(2, 3, 3)
	res := SolveHeuristic(g, 4.5, Options{})
	checkFeasible(t, g, res, 4.5)
	// {0,1,2} costs 4.5 and yields 9 — the optimum.
	if res.Weight < 9-1e-9 {
		t.Fatalf("fractional-cost optimum missed: weight %v, want 9", res.Weight)
	}
}

func TestGreedyBaselineFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		g := randomQK(rng, 15, 0.3, 6)
		budget := float64(rng.Intn(25))
		res := SolveGreedy(g, budget)
		checkFeasible(t, g, res, budget)
	}
}

func TestTheorySolverFeasibleAndSane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(10)
		g := randomQK(rng, n, 0.4, 5)
		budget := float64(3 + rng.Intn(12))
		res := SolveTheory(g, budget, Options{Seed: int64(trial + 1)})
		checkFeasible(t, g, res, budget)
		opt := BruteForce(g, budget)
		if opt.Weight > 0 && res.Weight < 0.3*opt.Weight {
			t.Errorf("trial %d: theory solver %v far below optimal %v",
				trial, res.Weight, opt.Weight)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	g := wgraph.New(0)
	res := SolveHeuristic(g, 5, Options{})
	if res.Weight != 0 || len(res.Nodes) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
	g2 := wgraph.New(3) // no edges
	g2.SetCost(0, 1)
	res = SolveHeuristic(g2, 5, Options{})
	if res.Weight != 0 {
		t.Fatalf("edgeless graph: %+v", res)
	}
	g3 := wgraph.New(2)
	g3.SetCost(0, 5)
	g3.SetCost(1, 5)
	g3.AddEdge(0, 1, 3)
	res = SolveHeuristic(g3, 0, Options{})
	if res.Weight != 0 || res.Cost != 0 {
		t.Fatalf("zero budget: %+v", res)
	}
}

func TestBudgetBoundaryExact(t *testing.T) {
	// Solution exactly at the budget must be accepted.
	g := wgraph.New(2)
	g.SetCost(0, 3)
	g.SetCost(1, 4)
	g.AddEdge(0, 1, 10)
	res := SolveHeuristic(g, 7, Options{})
	if res.Weight != 10 {
		t.Fatalf("exact-budget pair: weight %v, want 10", res.Weight)
	}
}

func BenchmarkHeuristicMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := randomQK(rng, 500, 0.02, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveHeuristic(g, 200, Options{Seed: int64(i + 1)})
	}
}

func BenchmarkGreedyMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomQK(rng, 500, 0.02, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveGreedy(g, 200)
	}
}
