package reduction

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/knapsack"
	"repro/internal/model"
	"repro/internal/propset"
	"repro/internal/wgraph"
)

// Theorem 3.1: BCC_{l=1} ≡ Knapsack. Solve both sides exactly and compare
// optima.
func TestTheorem31Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		nItems := 1 + rng.Intn(10)
		items := make([]knapsack.Item, nItems)
		for i := range items {
			items[i] = knapsack.Item{
				Value:  float64(1 + rng.Intn(20)),
				Weight: float64(1 + rng.Intn(10)),
			}
		}
		capacity := float64(rng.Intn(30))

		in, err := BCC1FromKnapsack(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		bccOpt, err := core.BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		kOpt := knapsack.BruteForce(items, capacity)
		if math.Abs(bccOpt.Utility-kOpt.Value) > 1e-9 {
			t.Fatalf("trial %d: BCC optimum %v != knapsack optimum %v",
				trial, bccOpt.Utility, kOpt.Value)
		}

		// Round trip back to knapsack.
		items2, cap2, err := KnapsackFromBCC1(in)
		if err != nil {
			t.Fatal(err)
		}
		k2 := knapsack.BruteForce(items2, cap2)
		if math.Abs(k2.Value-kOpt.Value) > 1e-9 {
			t.Fatalf("trial %d: round-trip optimum %v != %v", trial, k2.Value, kOpt.Value)
		}
	}
}

func TestKnapsackFromBCC1RejectsLongQueries(t *testing.T) {
	b := model.NewBuilder()
	b.AddQuery(1, "a", "b")
	in := b.MustInstance(5)
	if _, _, err := KnapsackFromBCC1(in); err == nil {
		t.Fatal("l=2 instance accepted")
	}
}

// Theorem 3.3: I_2 ≡ DkS. The BCC optimum equals the max number of edges
// induced by any k nodes.
func TestTheorem33Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		g := wgraph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v, 1)
				}
			}
		}
		if g.NumEdges() == 0 {
			continue
		}
		k := 1 + rng.Intn(n)

		in, err := I2FromDkS(g, k)
		if err != nil {
			t.Fatal(err)
		}
		bccOpt, err := core.BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		dksOpt := g.InducedWeightOf(bruteDkS(g, k))
		if math.Abs(bccOpt.Utility-dksOpt) > 1e-9 {
			t.Fatalf("trial %d: BCC optimum %v != DkS optimum %v (n=%d k=%d)",
				trial, bccOpt.Utility, dksOpt, n, k)
		}

		// Round trip: instance → graph must preserve the edge set.
		g2, k2, err := DkSFromI2(in)
		if err != nil {
			t.Fatal(err)
		}
		if k2 != k || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: round trip lost structure", trial)
		}
	}
}

// bruteDkS finds the exact DkS optimum by enumerating all k-subsets; use
// only on tiny graphs (n ≤ 24). TestTheorem33Equivalence checks
// core.BruteForce against it.
func bruteDkS(g *wgraph.Graph, k int) []int {
	n := g.NumNodes()
	if n > 24 {
		panic("bruteDkS limited to 24 nodes")
	}
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var best []int
	bestW := -1.0
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			if w := g.InducedWeightOf(cur); w > bestW {
				bestW = w
				best = append([]int(nil), cur...)
			}
			return
		}
		for v := start; v <= n-(k-len(cur)); v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return best
}

func TestDkSFromI2ValidatesRestrictions(t *testing.T) {
	// Non-unit utility must be rejected.
	b := model.NewBuilder()
	b.AddQuery(2, "a", "b")
	b.SetDefaultCost(func(s propset.Set) float64 {
		if s.Len() == 1 {
			return 1
		}
		return math.Inf(1)
	})
	in := b.MustInstance(2)
	if _, _, err := DkSFromI2(in); err == nil {
		t.Fatal("non-unit utility accepted")
	}
	// Finite pair classifier must be rejected.
	b2 := model.NewBuilder()
	b2.AddQuery(1, "a", "b")
	b2.SetDefaultCost(func(s propset.Set) float64 { return 1 })
	in2 := b2.MustInstance(2)
	if _, _, err := DkSFromI2(in2); err == nil {
		t.Fatal("finite pair classifier accepted")
	}
	// Fractional budget must be rejected.
	b3 := model.NewBuilder()
	b3.AddQuery(1, "a", "b")
	b3.SetDefaultCost(func(s propset.Set) float64 {
		if s.Len() == 1 {
			return 1
		}
		return math.Inf(1)
	})
	in3 := b3.MustInstance(1.5)
	if _, _, err := DkSFromI2(in3); err == nil {
		t.Fatal("fractional budget accepted")
	}
}

// Theorem 5.3 hardness direction: uniform GMC3 ≡ SpES. The greedy SpES
// solution must induce ≥ P edges using a sane number of nodes.
func TestSpESGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		g := wgraph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v, 1)
				}
			}
		}
		total := g.NumEdges()
		if total == 0 {
			continue
		}
		p := 1 + rng.Intn(total)
		sel, ok := SolveSpESGreedy(SpESInstance{G: g, P: p})
		if !ok {
			t.Fatalf("trial %d: feasible instance reported infeasible", trial)
		}
		in := make([]bool, n)
		for _, v := range sel {
			in[v] = true
		}
		if got := countEdgesIn(g, in); got < p {
			t.Fatalf("trial %d: selection induces %d < %d edges", trial, got, p)
		}
		// Optimality sanity: compare with the exhaustive minimum.
		opt := bruteSpES(g, p)
		if len(sel) < opt {
			t.Fatalf("trial %d: greedy used %d nodes, below exact minimum %d — bug",
				trial, len(sel), opt)
		}
	}
}

func TestSpESInfeasible(t *testing.T) {
	g := wgraph.New(3)
	g.AddEdge(0, 1, 1)
	if _, ok := SolveSpESGreedy(SpESInstance{G: g, P: 5}); ok {
		t.Fatal("infeasible instance accepted")
	}
}

func TestSpESFromUniformGMC3(t *testing.T) {
	b := model.NewBuilder()
	b.AddQuery(1, "a", "b")
	b.AddQuery(1, "b", "c")
	b.SetDefaultCost(func(s propset.Set) float64 {
		if s.Len() == 1 {
			return 1
		}
		return math.Inf(1)
	})
	in := b.MustInstance(0)
	inst, err := SpESFromUniformGMC3(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inst.P != 2 || inst.G.NumEdges() != 2 {
		t.Fatalf("mapping lost structure: %+v", inst)
	}
	sel, ok := SolveSpESGreedy(inst)
	if !ok || len(sel) != 3 { // covering both edges needs a, b, c
		t.Fatalf("SpES solution = %v ok=%v, want 3 nodes", sel, ok)
	}
}

func bruteSpES(g *wgraph.Graph, p int) int {
	n := g.NumNodes()
	best := n + 1
	for mask := 0; mask < 1<<n; mask++ {
		in := make([]bool, n)
		size := 0
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				in[v] = true
				size++
			}
		}
		if size < best && countEdgesIn(g, in) >= p {
			best = size
		}
	}
	return best
}
